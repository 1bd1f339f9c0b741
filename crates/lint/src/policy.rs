//! Lint policy: what each pass enforces, declared in a checked-in
//! `lint.toml` at the workspace root.
//!
//! The parser handles the TOML subset the policy file actually uses —
//! `[section]` headers, `key = "string"` and `key = ["a", "b"]` entries,
//! `#` comments — and rejects anything else loudly. Keeping the policy in
//! data (not code) means tightening the allowed surface is a one-line
//! diffable change reviewed like any other.

use std::collections::BTreeMap;

/// One declared lock class: a named mutex/rwlock the concurrency passes
/// track, identified by the file it lives in and the field/binding name
/// the guard is acquired through.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockClassDecl {
    /// Human-readable class name used in diagnostics and the global
    /// lock-order graph (e.g. `plan-cache`).
    pub name: String,
    /// Path prefix scoping the declaration (e.g.
    /// `crates/core/src/plan_cache.rs`): the same receiver ident in another
    /// file is a different lock.
    pub path: String,
    /// The receiver identifier immediately before `.lock()` /
    /// `.read()` / `.write()` (or last inside a `*_unpoisoned(...)`
    /// argument), e.g. `state`.
    pub receiver: String,
}

/// One declared mutex/condvar pairing the condvar-discipline pass checks
/// notify-after-mutation against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CondvarPairDecl {
    /// Path prefix scoping the pair.
    pub path: String,
    /// Receiver ident of the paired mutex (as in [`LockClassDecl`]).
    pub mutex_receiver: String,
    /// Field/binding name of the condvar (`not_empty`, `compiled`, ...).
    pub condvar: String,
}

/// Parsed lint policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    /// Crate whose internals are the hidden oracle (ident form, e.g.
    /// `dnnperf_gpu`).
    pub oracle_crate: String,
    /// Module names under the oracle crate that predictor code must never
    /// path-reference (`timing`, `fault`).
    pub oracle_private_modules: Vec<String>,
    /// Identifiers that only exist inside the oracle's private modules;
    /// any appearance outside exempt paths is a leak.
    pub oracle_private_idents: Vec<String>,
    /// Path prefixes exempt from the oracle pass (the oracle crate
    /// itself, and this lint crate's own sources/fixtures).
    pub oracle_exempt_paths: Vec<String>,
    /// Path prefixes allowed to call `Instant::now` / `SystemTime`
    /// (the clock abstraction itself, bench harnesses).
    pub determinism_clock_paths: Vec<String>,
    /// Path prefixes whose modules produce outputs and must therefore
    /// avoid iteration-order-dependent `HashMap`/`HashSet`.
    pub determinism_output_paths: Vec<String>,
    /// Crate directory prefixes that must carry
    /// `deny(clippy::unwrap_used, clippy::expect_used)` in their lib.rs.
    pub panic_deny_crates: Vec<String>,
    /// Hot-path files where bare `panic!`/`unreachable!` and slice
    /// indexing are flagged even outside the deny set.
    pub panic_hot_paths: Vec<String>,
    /// Extern crate names allowed by the hermeticity pass in addition to
    /// the workspace's own crates (std and friends).
    pub hermeticity_allowed_externs: Vec<String>,
    /// Path prefixes the workspace walker skips entirely.
    pub workspace_exclude: Vec<String>,
    /// Path prefixes the four concurrency passes analyze (the serving
    /// stack). Empty disables them.
    pub conc_paths: Vec<String>,
    /// Declared lock classes, parsed from `"name path receiver"` triples.
    pub conc_lock_classes: Vec<LockClassDecl>,
    /// Method/function names treated as blocking primitives
    /// (`join`, `sleep`, `recv_batch`, frame I/O, ...).
    pub conc_blocking_calls: Vec<String>,
    /// `(path-prefix, fn-name)` pairs exempt from blocking-under-lock.
    pub conc_blocking_allow: Vec<(String, String)>,
    /// Declared mutex/condvar pairs, from `"path mutex condvar"` triples.
    pub conc_condvar_pairs: Vec<CondvarPairDecl>,
    /// `(path-prefix, fn-name)` pairs exempt from the
    /// notify-after-mutation rule (mutations there only *remove* state,
    /// which can never make a waiter's predicate true).
    pub conc_condvar_allow: Vec<(String, String)>,
    /// The one file allowed to spell the raw
    /// `unwrap_or_else(PoisonError::into_inner)` idiom — the shared
    /// helper module everyone else must call.
    pub conc_helper_file: String,
}

impl Policy {
    /// Parses a `lint.toml` source string.
    pub fn parse(src: &str) -> Result<Policy, String> {
        let raw = parse_toml_subset(src)?;
        let get_list = |sec: &str, key: &str| -> Vec<String> {
            raw.get(&(sec.to_string(), key.to_string()))
                .cloned()
                .unwrap_or_default()
        };
        let get_str = |sec: &str, key: &str| -> String {
            raw.get(&(sec.to_string(), key.to_string()))
                .and_then(|v| v.first().cloned())
                .unwrap_or_default()
        };
        let p = Policy {
            oracle_crate: get_str("oracle", "oracle_crate"),
            oracle_private_modules: get_list("oracle", "private_modules"),
            oracle_private_idents: get_list("oracle", "private_idents"),
            oracle_exempt_paths: get_list("oracle", "exempt_paths"),
            determinism_clock_paths: get_list("determinism", "clock_paths"),
            determinism_output_paths: get_list("determinism", "output_paths"),
            panic_deny_crates: get_list("panic", "deny_crates"),
            panic_hot_paths: get_list("panic", "hot_paths"),
            hermeticity_allowed_externs: get_list("hermeticity", "allowed_externs"),
            workspace_exclude: get_list("workspace", "exclude"),
            conc_paths: get_list("concurrency", "paths"),
            conc_lock_classes: parse_triples(&get_list("concurrency", "lock_classes"))?
                .into_iter()
                .map(|[name, path, receiver]| LockClassDecl {
                    name,
                    path,
                    receiver,
                })
                .collect(),
            conc_blocking_calls: get_list("concurrency", "blocking_calls"),
            conc_blocking_allow: parse_pairs(&get_list("concurrency", "blocking_allow"))?,
            conc_condvar_pairs: parse_triples(&get_list("concurrency", "condvar_pairs"))?
                .into_iter()
                .map(|[path, mutex_receiver, condvar]| CondvarPairDecl {
                    path,
                    mutex_receiver,
                    condvar,
                })
                .collect(),
            conc_condvar_allow: parse_pairs(&get_list("concurrency", "condvar_allow"))?,
            conc_helper_file: get_str("concurrency", "helper_file"),
        };
        if p.oracle_crate.is_empty() {
            return Err("lint.toml: [oracle] oracle_crate is required".to_string());
        }
        if p.oracle_private_modules.is_empty() {
            return Err("lint.toml: [oracle] private_modules must be non-empty".to_string());
        }
        Ok(p)
    }

    /// Every path-valued entry as `(section.key, path prefix)`, section by
    /// section, for the stale-entry self-check. `[workspace] exclude` is
    /// left out: the walker never loads the files it excludes.
    pub fn path_entries(&self) -> Vec<(&'static str, &str)> {
        let lists: [(&'static str, &[String]); 6] = [
            ("oracle.exempt_paths", &self.oracle_exempt_paths),
            ("determinism.clock_paths", &self.determinism_clock_paths),
            ("determinism.output_paths", &self.determinism_output_paths),
            ("panic.deny_crates", &self.panic_deny_crates),
            ("panic.hot_paths", &self.panic_hot_paths),
            ("concurrency.paths", &self.conc_paths),
        ];
        let mut out: Vec<(&'static str, &str)> = lists
            .into_iter()
            .flat_map(|(key, paths)| paths.iter().map(move |p| (key, p.as_str())))
            .collect();
        out.extend(
            self.conc_lock_classes
                .iter()
                .map(|c| ("concurrency.lock_classes", c.path.as_str())),
        );
        out.extend(
            self.conc_blocking_allow
                .iter()
                .map(|(p, _)| ("concurrency.blocking_allow", p.as_str())),
        );
        out.extend(
            self.conc_condvar_pairs
                .iter()
                .map(|c| ("concurrency.condvar_pairs", c.path.as_str())),
        );
        out.extend(
            self.conc_condvar_allow
                .iter()
                .map(|(p, _)| ("concurrency.condvar_allow", p.as_str())),
        );
        if !self.conc_helper_file.is_empty() {
            out.push(("concurrency.helper_file", &self.conc_helper_file));
        }
        out
    }
}

/// Splits each `"a b c"` entry into exactly three whitespace-separated
/// fields, rejecting anything else with the offending entry quoted.
fn parse_triples(entries: &[String]) -> Result<Vec<[String; 3]>, String> {
    entries
        .iter()
        .map(|e| {
            let fields: Vec<&str> = e.split_whitespace().collect();
            match fields.as_slice() {
                [a, b, c] => Ok([a.to_string(), b.to_string(), c.to_string()]),
                _ => Err(format!(
                    "lint.toml: [concurrency] entry `{e}` must have exactly three \
                     whitespace-separated fields"
                )),
            }
        })
        .collect()
}

/// Splits each `"a b"` entry into exactly two whitespace-separated
/// fields.
fn parse_pairs(entries: &[String]) -> Result<Vec<(String, String)>, String> {
    entries
        .iter()
        .map(|e| {
            let fields: Vec<&str> = e.split_whitespace().collect();
            match fields.as_slice() {
                [a, b] => Ok((a.to_string(), b.to_string())),
                _ => Err(format!(
                    "lint.toml: [concurrency] entry `{e}` must have exactly two \
                     whitespace-separated fields"
                )),
            }
        })
        .collect()
}

/// Parses the TOML subset into `(section, key) -> values` (a scalar
/// string becomes a single-element list). Arrays may span multiple
/// lines: a value opening with `[` consumes lines until the closing
/// `]`, with comments stripped per-line.
fn parse_toml_subset(src: &str) -> Result<BTreeMap<(String, String), Vec<String>>, String> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let lines: Vec<&str> = src.lines().collect();
    let mut n = 0usize;
    while n < lines.len() {
        let lineno = n + 1;
        let line = strip_comment(lines[n]).trim().to_string();
        n += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = inner.trim().to_string();
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("lint.toml:{lineno}: expected `key = value`"));
        };
        let key = line[..eq].trim().to_string();
        let mut val = line[eq + 1..].trim().to_string();
        if val.starts_with('[') && !val.ends_with(']') {
            // Multi-line array: accumulate until the closing bracket.
            loop {
                let Some(cont) = lines.get(n) else {
                    return Err(format!(
                        "lint.toml:{lineno}: unterminated array for `{key}`"
                    ));
                };
                let cont = strip_comment(cont).trim().to_string();
                n += 1;
                if !cont.is_empty() {
                    val.push(' ');
                    val.push_str(&cont);
                }
                if cont.ends_with(']') {
                    break;
                }
            }
        }
        let values = if let Some(body) = val.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            parse_string_list(body, lineno)?
        } else {
            vec![parse_string(&val, lineno)?]
        };
        out.insert((section.clone(), key), values);
    }
    Ok(out)
}

/// Strips a `#` comment, respecting `"..."` quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(s: &str, lineno: usize) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .map(|t| t.to_string())
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a double-quoted string, got `{s}`"))
}

fn parse_string_list(body: &str, lineno: usize) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[oracle]
oracle_crate = "dnnperf_gpu"
private_modules = ["timing", "fault"]
private_idents = ["kernel_time"]  # inline comment
exempt_paths = ["crates/gpu/"]

[determinism]
clock_paths = ["crates/scheduler/src/retry.rs"]
output_paths = ["crates/core/src/",]
"#;

    #[test]
    fn parses_sections_strings_and_lists() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(p.oracle_crate, "dnnperf_gpu");
        assert_eq!(p.oracle_private_modules, vec!["timing", "fault"]);
        assert_eq!(p.oracle_private_idents, vec!["kernel_time"]);
        assert_eq!(
            p.determinism_clock_paths,
            vec!["crates/scheduler/src/retry.rs"]
        );
        assert_eq!(p.determinism_output_paths, vec!["crates/core/src/"]);
        assert!(p.panic_deny_crates.is_empty());
    }

    #[test]
    fn missing_oracle_crate_is_an_error() {
        let err = Policy::parse("[oracle]\nprivate_modules = [\"timing\"]\n").unwrap_err();
        assert!(err.contains("oracle_crate"));
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = Policy::parse("[oracle]\noracle_crate\n").unwrap_err();
        assert!(err.contains(":2:"), "{err}");
    }

    #[test]
    fn multi_line_arrays_parse_with_per_line_comments() {
        let src = concat!(
            "[oracle]\noracle_crate = \"g\"\n",
            "private_modules = [\n",
            "    \"timing\", # ground truth\n",
            "    \"fault\",\n",
            "]\n",
        );
        let p = Policy::parse(src).unwrap();
        assert_eq!(p.oracle_private_modules, vec!["timing", "fault"]);
    }

    #[test]
    fn unterminated_array_is_a_loud_error() {
        let err = Policy::parse("[oracle]\noracle_crate = \"g\"\nprivate_modules = [\n\"m\",\n")
            .unwrap_err();
        assert!(err.contains("unterminated"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let raw = parse_toml_subset("[s]\nk = \"a#b\"\n").unwrap();
        assert_eq!(raw[&("s".to_string(), "k".to_string())], vec!["a#b"]);
    }

    #[test]
    fn concurrency_section_parses_triples_and_pairs() {
        let src = concat!(
            "[oracle]\noracle_crate = \"g\"\nprivate_modules = [\"m\"]\n",
            "[concurrency]\n",
            "paths = [\"crates/serve/src/\"]\n",
            "lock_classes = [\"plan-cache crates/core/src/plan_cache.rs state\"]\n",
            "blocking_calls = [\"join\", \"sleep\"]\n",
            "condvar_pairs = [\"crates/core/src/plan_cache.rs state compiled\"]\n",
            "condvar_allow = [\"crates/core/src/plan_cache.rs clear\"]\n",
            "helper_file = \"crates/scheduler/src/sync.rs\"\n",
        );
        let p = Policy::parse(src).unwrap();
        assert_eq!(p.conc_paths, vec!["crates/serve/src/"]);
        assert_eq!(
            p.conc_lock_classes,
            vec![LockClassDecl {
                name: "plan-cache".into(),
                path: "crates/core/src/plan_cache.rs".into(),
                receiver: "state".into(),
            }]
        );
        assert_eq!(p.conc_blocking_calls, vec!["join", "sleep"]);
        assert_eq!(
            p.conc_condvar_pairs,
            vec![CondvarPairDecl {
                path: "crates/core/src/plan_cache.rs".into(),
                mutex_receiver: "state".into(),
                condvar: "compiled".into(),
            }]
        );
        assert_eq!(
            p.conc_condvar_allow,
            vec![(
                "crates/core/src/plan_cache.rs".to_string(),
                "clear".to_string()
            )]
        );
        assert_eq!(p.conc_helper_file, "crates/scheduler/src/sync.rs");
    }

    #[test]
    fn malformed_lock_class_triple_is_an_error() {
        let src = concat!(
            "[oracle]\noracle_crate = \"g\"\nprivate_modules = [\"m\"]\n",
            "[concurrency]\nlock_classes = [\"only-two fields-here\"]\n",
        );
        let err = Policy::parse(src).unwrap_err();
        assert!(err.contains("three"), "{err}");
    }
}
