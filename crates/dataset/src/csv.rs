//! Hand-rolled CSV serialization for the dataset tables.
//!
//! The tables are purely numeric plus comma-free identifiers, so a
//! dependency-free reader/writer is sufficient and keeps the format fully
//! under our control (see DESIGN.md's dependency notes).

use crate::dataset::Dataset;
use crate::record::{KernelRow, LayerRow, NetworkRow};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Errors produced while reading or writing dataset CSV files.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed row.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Parse { line, reason } => {
                write!(f, "csv parse error at line {line}: {reason}")
            }
        }
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

const NETWORK_HEADER: &str =
    "network,family,gpu,batch,flops,bytes,e2e_seconds,gpu_seconds,kernel_count";
const LAYER_HEADER: &str =
    "network,gpu,batch,layer_index,layer_type,flops,in_elems,out_elems,seconds";
const KERNEL_HEADER: &str =
    "network,gpu,batch,layer_index,layer_type,kernel,in_elems,flops,out_elems,seconds";

fn check_field(s: &str) -> &str {
    debug_assert!(!s.contains(','), "CSV field contains a comma: {s}");
    s
}

/// Writes the three dataset tables as `networks.csv`, `layers.csv` and
/// `kernels.csv` under `dir`.
///
/// # Errors
///
/// Returns [`CsvError::Io`] on filesystem failures.
pub fn write_dataset(ds: &Dataset, dir: &Path) -> Result<(), CsvError> {
    std::fs::create_dir_all(dir)?;
    write_networks(&ds.networks, &dir.join("networks.csv"))?;
    write_layers(&ds.layers, &dir.join("layers.csv"))?;
    write_kernels(&ds.kernels, &dir.join("kernels.csv"))?;
    Ok(())
}

/// Reads a dataset previously written by [`write_dataset`].
///
/// # Errors
///
/// Returns [`CsvError::Io`] on filesystem failures and [`CsvError::Parse`]
/// on malformed rows.
pub fn read_dataset(dir: &Path) -> Result<Dataset, CsvError> {
    Ok(Dataset {
        networks: read_networks(&dir.join("networks.csv"))?,
        layers: read_layers(&dir.join("layers.csv"))?,
        kernels: read_kernels(&dir.join("kernels.csv"))?,
    })
}

/// Writes one network row (no trailing header logic).
fn write_network_row<W: Write>(w: &mut W, r: &NetworkRow) -> io::Result<()> {
    writeln!(
        w,
        "{},{},{},{},{},{},{},{},{}",
        check_field(&r.network),
        check_field(&r.family),
        check_field(&r.gpu),
        r.batch,
        r.flops,
        r.bytes,
        r.e2e_seconds,
        r.gpu_seconds,
        r.kernel_count
    )
}

/// Writes one layer row.
fn write_layer_row<W: Write>(w: &mut W, r: &LayerRow) -> io::Result<()> {
    writeln!(
        w,
        "{},{},{},{},{},{},{},{},{}",
        check_field(&r.network),
        check_field(&r.gpu),
        r.batch,
        r.layer_index,
        check_field(&r.layer_type),
        r.flops,
        r.in_elems,
        r.out_elems,
        r.seconds
    )
}

/// Writes one kernel row.
fn write_kernel_row<W: Write>(w: &mut W, r: &KernelRow) -> io::Result<()> {
    writeln!(
        w,
        "{},{},{},{},{},{},{},{},{},{}",
        check_field(&r.network),
        check_field(&r.gpu),
        r.batch,
        r.layer_index,
        check_field(&r.layer_type),
        check_field(&r.kernel),
        r.in_elems,
        r.flops,
        r.out_elems,
        r.seconds
    )
}

fn write_networks(rows: &[NetworkRow], path: &Path) -> Result<(), CsvError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{NETWORK_HEADER}")?;
    for r in rows {
        write_network_row(&mut w, r)?;
    }
    Ok(())
}

fn write_layers(rows: &[LayerRow], path: &Path) -> Result<(), CsvError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{LAYER_HEADER}")?;
    for r in rows {
        write_layer_row(&mut w, r)?;
    }
    Ok(())
}

fn write_kernels(rows: &[KernelRow], path: &Path) -> Result<(), CsvError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{KERNEL_HEADER}")?;
    for r in rows {
        write_kernel_row(&mut w, r)?;
    }
    Ok(())
}

struct Fields<'a> {
    parts: Vec<&'a str>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn new(s: &'a str, line: usize, expect: usize) -> Result<Self, CsvError> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != expect {
            return Err(CsvError::Parse {
                line,
                reason: format!("expected {expect} fields, got {}", parts.len()),
            });
        }
        Ok(Fields { parts, line })
    }

    fn str(&self, i: usize) -> Arc<str> {
        Arc::from(self.parts[i])
    }

    fn num<T: std::str::FromStr>(&self, i: usize) -> Result<T, CsvError> {
        self.parts[i].parse().map_err(|_| CsvError::Parse {
            line: self.line,
            reason: format!("bad numeric field {:?}", self.parts[i]),
        })
    }
}

fn read_lines(path: &Path, header: &str) -> Result<Vec<String>, CsvError> {
    let f = std::fs::File::open(path)?;
    let mut lines = io::BufReader::new(f).lines();
    match lines.next() {
        Some(Ok(h)) if h == header => {}
        Some(Ok(h)) => {
            return Err(CsvError::Parse {
                line: 1,
                reason: format!("unexpected header {h:?}"),
            })
        }
        Some(Err(e)) => return Err(e.into()),
        None => {
            return Err(CsvError::Parse {
                line: 1,
                reason: "empty file".into(),
            })
        }
    }
    lines.map(|l| l.map_err(CsvError::from)).collect()
}

/// Parses one network row. `line_no` is the 1-based line for diagnostics.
fn parse_network_row(line: &str, line_no: usize) -> Result<NetworkRow, CsvError> {
    let f = Fields::new(line, line_no, 9)?;
    Ok(NetworkRow {
        network: f.str(0),
        family: f.str(1),
        gpu: f.str(2),
        batch: f.num(3)?,
        flops: f.num(4)?,
        bytes: f.num(5)?,
        e2e_seconds: f.num(6)?,
        gpu_seconds: f.num(7)?,
        kernel_count: f.num(8)?,
    })
}

/// Parses one layer row.
fn parse_layer_row(line: &str, line_no: usize) -> Result<LayerRow, CsvError> {
    let f = Fields::new(line, line_no, 9)?;
    Ok(LayerRow {
        network: f.str(0),
        gpu: f.str(1),
        batch: f.num(2)?,
        layer_index: f.num(3)?,
        layer_type: f.str(4),
        flops: f.num(5)?,
        in_elems: f.num(6)?,
        out_elems: f.num(7)?,
        seconds: f.num(8)?,
    })
}

/// Parses one kernel row.
fn parse_kernel_row(line: &str, line_no: usize) -> Result<KernelRow, CsvError> {
    let f = Fields::new(line, line_no, 10)?;
    Ok(KernelRow {
        network: f.str(0),
        gpu: f.str(1),
        batch: f.num(2)?,
        layer_index: f.num(3)?,
        layer_type: f.str(4),
        kernel: f.str(5),
        in_elems: f.num(6)?,
        flops: f.num(7)?,
        out_elems: f.num(8)?,
        seconds: f.num(9)?,
    })
}

fn read_networks(path: &Path) -> Result<Vec<NetworkRow>, CsvError> {
    read_lines(path, NETWORK_HEADER)?
        .iter()
        .enumerate()
        .map(|(i, l)| parse_network_row(l, i + 2))
        .collect()
}

fn read_layers(path: &Path) -> Result<Vec<LayerRow>, CsvError> {
    read_lines(path, LAYER_HEADER)?
        .iter()
        .enumerate()
        .map(|(i, l)| parse_layer_row(l, i + 2))
        .collect()
}

fn read_kernels(path: &Path) -> Result<Vec<KernelRow>, CsvError> {
    read_lines(path, KERNEL_HEADER)?
        .iter()
        .enumerate()
        .map(|(i, l)| parse_kernel_row(l, i + 2))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect;
    use dnnperf_gpu::GpuSpec;

    #[test]
    fn round_trip_preserves_dataset() {
        let nets = [dnnperf_dnn::zoo::resnet::resnet18()];
        let gpus = [GpuSpec::by_name("A100").unwrap()];
        let ds = collect(&nets, &gpus, &[16]);
        let dir = std::env::temp_dir().join("dnnperf_csv_roundtrip_test");
        write_dataset(&ds, &dir).unwrap();
        let back = read_dataset(&dir).unwrap();
        assert_eq!(ds.networks.len(), back.networks.len());
        assert_eq!(ds.layers.len(), back.layers.len());
        assert_eq!(ds.kernels.len(), back.kernels.len());
        assert_eq!(ds.kernels[0], back.kernels[0]);
        assert_eq!(
            ds.networks[0].e2e_seconds, back.networks[0].e2e_seconds,
            "f64 must round-trip exactly through display formatting"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_header_is_rejected() {
        let dir = std::env::temp_dir().join("dnnperf_csv_badheader_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("networks.csv"), "nope\n").unwrap();
        std::fs::write(dir.join("layers.csv"), format!("{LAYER_HEADER}\n")).unwrap();
        std::fs::write(dir.join("kernels.csv"), format!("{KERNEL_HEADER}\n")).unwrap();
        let err = read_dataset(&dir).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_row_reports_line() {
        let dir = std::env::temp_dir().join("dnnperf_csv_badrow_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("networks.csv"),
            format!("{NETWORK_HEADER}\na,b,c,not_a_number,1,2,3,4,5\n"),
        )
        .unwrap();
        std::fs::write(dir.join("layers.csv"), format!("{LAYER_HEADER}\n")).unwrap();
        std::fs::write(dir.join("kernels.csv"), format!("{KERNEL_HEADER}\n")).unwrap();
        let err = read_dataset(&dir).unwrap_err();
        match err {
            CsvError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("not_a_number"));
            }
            other => panic!("expected parse error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn field_count_mismatch_is_parse_error() {
        let dir = std::env::temp_dir().join("dnnperf_csv_fieldcount_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("networks.csv"), format!("{NETWORK_HEADER}\na,b\n")).unwrap();
        std::fs::write(dir.join("layers.csv"), format!("{LAYER_HEADER}\n")).unwrap();
        std::fs::write(dir.join("kernels.csv"), format!("{KERNEL_HEADER}\n")).unwrap();
        assert!(matches!(read_dataset(&dir), Err(CsvError::Parse { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
