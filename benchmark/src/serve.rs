//! `serve-hot` and `serve-churn`: pipelined TCP connections against a
//! [`PredictionServer`] behind a [`TcpServer`].
//!
//! A measured run alternates open-loop and closed-loop phases, each on a
//! fresh connection. In an open-loop phase a sender thread writes request
//! frames on a Poisson schedule and a receiver thread reads the replies;
//! the server handles one connection sequentially, so replies arrive in
//! request order and the receiver matches them through a FIFO channel.
//! Latency is timed from when each request was due, so a stall also
//! charges the requests queued behind it. In a closed-loop phase one
//! thread keeps [`OUTSTANDING`] requests in flight.

use crate::gen::{poisson_schedule, KeyStream};
use crate::report::Report;
use crate::stats::{mean, median, median_of_percentiles, percentile};
use crate::trace::{explained_share, Tracer};
use crate::{
    cores, median_setup, now, overhead_pct, secs, set_all, set_collect, write_spans, zoo, Opts,
    Workload,
};
use dnnperf_core::plan::network_fingerprint;
use dnnperf_core::{CompiledPlan, Predictor, TrainOptions, Workflow};
use dnnperf_data::collect::collect_report_opts;
use dnnperf_data::{CollectOptions, CollectReport};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use dnnperf_serve::{
    read_frame, write_frame, CacheConfig, Client, Pending, PredictionServer, Request, Response,
    ServerConfig, SharedPlanCache, TcpServer,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const TENANT: &str = "bench";
const GPU: &str = "A100";
/// Batch sizes the served suite is trained on.
const TRAIN_BATCHES: [usize; 3] = [1, 8, 32];
/// Requests the closed-loop phase keeps in flight on its one connection.
const OUTSTANDING: usize = 32;
/// Rounds of (open loop, closed loop) in a measured run; each figure is
/// the median across rounds.
const ROUNDS: usize = 10;
/// Requests the probe replays one by one through the finer functions.
const PROBE_REQUESTS: usize = 20_000;
/// Probe requests that also compile a plan from scratch.
const PROBE_COMPILES: usize = 2_000;
/// A reply slower than this counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
const SHARDS: usize = 16;

struct Params {
    zipf_s: f64,
    batches: &'static [usize],
    budget_bytes: usize,
    /// Compile every key before measuring.
    prewarm: bool,
    rate_rps: f64,
    /// Closed-loop requests sent before measuring, to reach a steady cache.
    warmup: u64,
    /// Swap the tenant's suite halfway through every open-loop phase.
    swaps: bool,
}

fn params(w: Workload, smoke: bool) -> Params {
    if w == Workload::ServeHot {
        Params {
            zipf_s: 1.0,
            batches: &[1, 8, 32],
            budget_bytes: 128 << 20,
            prewarm: true,
            rate_rps: if smoke { 2_000.0 } else { 10_000.0 },
            warmup: 0,
            swaps: false,
        }
    } else {
        Params {
            zipf_s: 0.9,
            batches: &[1, 2, 4, 8, 16, 32, 64, 128],
            budget_bytes: if smoke { 1 << 20 } else { 16 << 20 },
            prewarm: false,
            rate_rps: 2_000.0,
            warmup: if smoke { 500 } else { 20_000 },
            swaps: true,
        }
    }
}

/// Everything a serving user pays for before the first request.
struct Served {
    nets: Vec<Network>,
    suites: Vec<Arc<Workflow>>,
    server: Arc<PredictionServer>,
    tcp: TcpServer,
    collect: CollectReport,
    collect_rows: usize,
    collect_s: f64,
    prewarm_failures: u64,
}

fn setup(p: &Params, smoke: bool, tr: &mut Tracer) -> Served {
    tr.span("setup", 0, |tr| {
        let nets = zoo(smoke);
        let gpu = GpuSpec::by_name(GPU).expect("A100 is a Table 1 GPU");
        let t = now();
        let (ds, collect) = tr.span("collect", 0, |_| {
            collect_report_opts(
                &nets,
                &[gpu],
                &TRAIN_BATCHES,
                &CollectOptions::with_threads(cores()),
            )
        });
        let collect_s = secs(t);
        // serve-churn swaps between two suites trained on the same data:
        // different generations, bit-identical predictions.
        let n_suites = if p.swaps { 2 } else { 1 };
        let suites: Vec<Arc<Workflow>> = (0..n_suites)
            .map(|_| {
                tr.span("train", 0, |_| {
                    let opts = TrainOptions::with_threads(cores());
                    Arc::new(Workflow::train_opts(&ds, GPU, &opts).expect("train the served suite"))
                })
            })
            .collect();
        let server = tr.span("server.start", 0, |_| {
            let server = Arc::new(PredictionServer::start(&ServerConfig {
                workers: cores(),
                queue_depth: 1024,
                max_batch: 16,
                cache: CacheConfig {
                    shards: SHARDS,
                    budget_bytes: p.budget_bytes,
                },
                panic_plan: None,
            }));
            server.register_tenant(TENANT, Arc::clone(&suites[0]));
            server.add_networks(nets.iter().cloned());
            server
        });
        let tcp = tr.span("tcp.start", 0, |_| {
            TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind a loopback port")
        });
        let mut prewarm_failures = 0;
        if p.prewarm {
            tr.span("prewarm", 0, |_| {
                for net in &nets {
                    for &b in p.batches {
                        let served = server.predict(TENANT, net.name(), b);
                        prewarm_failures += u64::from(served.is_err());
                    }
                }
            });
        }
        Served {
            collect_rows: ds.kernels.len(),
            nets,
            suites,
            server,
            tcp,
            collect,
            collect_s,
            prewarm_failures,
        }
    })
}

/// What the connection threads share, read-only.
struct Ctx<'a> {
    sv: &'a Served,
    p: &'a Params,
    /// Reference answer per key: the uncompiled KW model.
    refs: &'a [f64],
}

impl Ctx<'_> {
    fn keys(&self) -> usize {
        self.sv.nets.len() * self.p.batches.len()
    }

    /// Key `k` is network `k / batches.len()` at batch
    /// `batches[k % batches.len()]`.
    fn parts(&self, key: usize) -> (&Network, usize) {
        let nb = self.p.batches.len();
        (&self.sv.nets[key / nb], self.p.batches[key % nb])
    }
}

enum Load {
    /// Open loop: requests due at these offsets (seconds) from the start.
    Open(Vec<f64>),
    /// Closed loop until this many requests were sent.
    ClosedCount(u64),
    /// Closed loop for this long.
    ClosedFor(Duration),
}

/// A request in flight, as the reading side learns of it.
struct InFlight {
    id: u64,
    key: usize,
    due: Duration,
}

/// serve-churn's writes: swaps the tenant's suite just before the
/// request with id `swap_at` is sent. The swap sits at the same point of
/// every open-loop phase, so every round's latencies see the same purge
/// and recompiles.
struct Swapper<'a> {
    server: &'a PredictionServer,
    suites: &'a [Arc<Workflow>],
    swap_at: Option<u64>,
    current: usize,
    update_us: Vec<f64>,
    purged: u64,
}

impl Swapper<'_> {
    fn before_send(&mut self, tr: &mut Tracer, id: u64) {
        if self.swap_at != Some(id) {
            return;
        }
        self.current = (self.current + 1) % self.suites.len();
        let suite = Arc::clone(&self.suites[self.current]);
        let t = now();
        let purged = tr.span("server.update_suite", id, |_| {
            self.server.update_suite(TENANT, suite)
        });
        self.update_us.push(secs(t) * 1e6);
        self.purged += purged as u64;
    }
}

/// The writing side of the load: the request stream and the suite swaps
/// that ride along with it.
struct Sender<'a> {
    keys: KeyStream,
    swapper: Swapper<'a>,
    next_id: u64,
    tr: Tracer,
}

impl Sender<'_> {
    /// Draws the next request, encodes it and writes it.
    fn send(
        &mut self,
        ctx: &Ctx<'_>,
        writer: &mut TcpStream,
        due: Duration,
    ) -> Result<InFlight, String> {
        let id = self.next_id;
        self.next_id += 1;
        let key = self.keys.next_key();
        let (net, batch) = ctx.parts(key);
        self.swapper.before_send(&mut self.tr, id);
        let payload = self.tr.span("protocol.encode", id, |_| {
            Request::Predict {
                tenant: TENANT.to_string(),
                network: net.name().to_string(),
                batch,
                deadline_ms: None,
            }
            .format()
        });
        match self
            .tr
            .span("tcp.write", id, |_| write_frame(writer, &payload))
        {
            Ok(()) => Ok(InFlight { id, key, due }),
            Err(e) => Err(format!("writing a request failed: {e}")),
        }
    }
}

/// What one phase observed.
#[derive(Default)]
struct PhaseOut {
    /// Per-reply latency from when the request was due, in reply order.
    latency_us: Vec<f64>,
    /// How late the sender wrote each request (open loop only).
    lag_us: Vec<f64>,
    /// Replies that arrived within the phase's duration.
    in_span: u64,
    span_s: f64,
    sent: u64,
    answered: u64,
    /// Replies that were wrong, each counted as one failed request.
    wrong: Vec<String>,
    /// Why the phase stopped early, if it did.
    broken: Option<String>,
}

/// The reading side: times each reply and checks it against the reference.
struct Receiver {
    tr: Tracer,
}

impl Receiver {
    /// Reads the reply to `f`. An error means the connection is unusable.
    fn receive(
        &mut self,
        ctx: &Ctx<'_>,
        reader: &mut TcpStream,
        f: InFlight,
        start: Duration,
        run_for: Option<Duration>,
        out: &mut PhaseOut,
    ) -> Result<(), String> {
        let frame = match read_frame(reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err("server closed the connection".into()),
            Err(e) => return Err(format!("reading a reply failed: {e}")),
        };
        let resp = self
            .tr
            .span("protocol.decode", f.id, |_| Response::parse(&frame));
        let done = now();
        self.tr.record("request", f.id, f.due, done);
        out.answered += 1;
        out.latency_us.push((done - f.due).as_secs_f64() * 1e6);
        out.in_span += u64::from(run_for.is_none_or(|d| done - start < d));
        match resp {
            Ok(Response::Ok { seconds, .. }) if seconds.to_bits() == ctx.refs[f.key].to_bits() => {}
            Ok(Response::Ok { .. }) => out.wrong.push("reply differs from the reference".into()),
            Ok(other) => out.wrong.push(format!("server answered {other:?}")),
            Err(e) => out.wrong.push(format!("malformed reply: {e}")),
        }
        Ok(())
    }
}

/// The request stream and the state that carries across phases. Every
/// phase runs on a connection of its own, so the server's handler thread
/// and the load threads are placed afresh each time.
struct LoadGen<'a> {
    sender: Sender<'a>,
    receiver: Receiver,
}

impl<'a> LoadGen<'a> {
    fn new(ctx: &Ctx<'a>, seed: u64, tr: &Tracer) -> Self {
        LoadGen {
            sender: Sender {
                keys: KeyStream::new(seed, ctx.keys(), ctx.p.zipf_s),
                swapper: Swapper {
                    server: &ctx.sv.server,
                    suites: &ctx.sv.suites,
                    swap_at: None,
                    current: 0,
                    update_us: Vec::new(),
                    purged: 0,
                },
                next_id: 0,
                tr: tr.sibling(),
            },
            receiver: Receiver { tr: tr.sibling() },
        }
    }

    fn phase(&mut self, ctx: &Ctx<'_>, load: Load, report: &mut Report) -> PhaseOut {
        let writer = &mut TcpStream::connect(ctx.sv.tcp.addr()).expect("connect to the server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = &mut writer.try_clone().expect("clone the connection");
        reader
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("set a read timeout");
        let first_id = self.sender.next_id;
        let start = now();
        let (mut out, run_for) = match load {
            Load::Open(schedule) => {
                let midpoint = first_id + schedule.len() as u64 / 2;
                self.sender.swapper.swap_at = ctx.p.swaps.then_some(midpoint);
                let out = self.open_loop(ctx, writer, reader, schedule, start);
                self.sender.swapper.swap_at = None;
                (out, None)
            }
            Load::ClosedCount(n) => (self.closed_loop(ctx, writer, reader, n, None, start), None),
            Load::ClosedFor(d) => (
                self.closed_loop(ctx, writer, reader, u64::MAX, Some(d), start),
                Some(d),
            ),
        };
        out.span_s = run_for.map_or_else(|| secs(start), |d| d.as_secs_f64());
        report.attempt(self.sender.next_id - first_id);
        let write_failed = self.sender.next_id - first_id - out.sent;
        for w in &out.wrong {
            report.fail(1, w.clone());
        }
        if let Some(why) = &out.broken {
            report.fail(write_failed, why.clone());
        }
        if out.answered < out.sent {
            report.fail(out.sent - out.answered, "request without a reply");
        }
        out
    }

    /// A sender thread writes each request when it is due while a receiver
    /// thread reads the replies.
    fn open_loop(
        &mut self,
        ctx: &Ctx<'_>,
        writer: &mut TcpStream,
        reader: &mut TcpStream,
        schedule: Vec<f64>,
        start: Duration,
    ) -> PhaseOut {
        let LoadGen { sender, receiver } = self;
        let (tx, rx) = mpsc::channel::<InFlight>();
        let ((lag_us, sent, write_error), mut out) = std::thread::scope(|s| {
            let sending = s.spawn(move || {
                let mut lag_us = Vec::with_capacity(schedule.len());
                let mut sent = 0;
                for d in schedule {
                    let due = start + Duration::from_secs_f64(d);
                    let now = now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    lag_us.push(secs(due) * 1e6);
                    match sender.send(ctx, writer, due) {
                        Ok(f) => {
                            sent += 1;
                            // The receiver hangs up only on a broken connection.
                            if tx.send(f).is_err() {
                                break;
                            }
                        }
                        Err(e) => return (lag_us, sent, Some(e)),
                    }
                }
                (lag_us, sent, None)
            });
            let receiving = s.spawn(move || {
                let mut out = PhaseOut::default();
                for f in rx {
                    if let Err(e) = receiver.receive(ctx, reader, f, start, None, &mut out) {
                        out.broken = Some(e);
                        break;
                    }
                }
                out
            });
            (
                sending.join().expect("sender thread"),
                receiving.join().expect("receiver thread"),
            )
        });
        out.lag_us = lag_us;
        out.sent = sent;
        out.broken = out.broken.or(write_error);
        out
    }

    /// One thread keeps [`OUTSTANDING`] requests in flight: it tops the
    /// window up, then waits for the oldest reply.
    fn closed_loop(
        &mut self,
        ctx: &Ctx<'_>,
        writer: &mut TcpStream,
        reader: &mut TcpStream,
        limit: u64,
        run_for: Option<Duration>,
        start: Duration,
    ) -> PhaseOut {
        let mut out = PhaseOut::default();
        let mut inflight = VecDeque::with_capacity(OUTSTANDING);
        loop {
            while inflight.len() < OUTSTANDING
                && out.sent < limit
                && out.broken.is_none()
                && run_for.is_none_or(|d| now() - start < d)
            {
                match self.sender.send(ctx, writer, now()) {
                    Ok(f) => {
                        inflight.push_back(f);
                        out.sent += 1;
                    }
                    Err(e) => out.broken = Some(e),
                }
            }
            let Some(f) = inflight.pop_front() else { break };
            if let Err(e) = self
                .receiver
                .receive(ctx, reader, f, start, run_for, &mut out)
            {
                out.broken = Some(e);
                break;
            }
        }
        out
    }
}

/// End-to-end figures of one measured run, plus the layer counters it
/// moved.
struct Measured {
    p50_us: f64,
    p90_us: f64,
    peak_rps: f64,
    samples: usize,
    lag_p99_us: f64,
    sent: u64,
    received: u64,
    admitted: u64,
    completed: u64,
    shed: u64,
    hits: u64,
    misses: u64,
    compiles: u64,
    evictions: u64,
    update_us: Vec<f64>,
    purged: u64,
}

/// A measured run: the warm-up, then [`ROUNDS`] rounds of an open-loop
/// phase followed by a closed-loop phase, splitting `seconds` evenly.
/// Each figure is the median across rounds of the round's figure.
fn measure(
    ctx: &Ctx<'_>,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Measured {
    let (sv, p) = (ctx.sv, ctx.p);
    let mut load_gen = LoadGen::new(ctx, seed, tr);
    if p.warmup > 0 {
        load_gen.phase(ctx, Load::ClosedCount(p.warmup), report);
    }
    let before = sv.server.stats();
    let swapper = &load_gen.sender.swapper;
    let (swaps0, purged0) = (swapper.update_us.len(), swapper.purged);
    let phase_s = seconds / (2 * ROUNDS) as f64;
    let (mut latency, mut rates, mut lag_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sent, mut received) = (0, 0);
    for round in 0..ROUNDS {
        let schedule = poisson_schedule(seed, round as u64, p.rate_rps, phase_s);
        let open = load_gen.phase(ctx, Load::Open(schedule), report);
        let load = Load::ClosedFor(Duration::from_secs_f64(phase_s));
        let closed = load_gen.phase(ctx, load, report);
        rates.push(closed.in_span as f64 / closed.span_s);
        lag_us.extend(open.lag_us);
        latency.push(open.latency_us);
        sent += open.sent + closed.sent;
        received += open.answered + closed.answered;
    }
    let after = sv.server.stats();
    let LoadGen { sender, receiver } = load_gen;
    let swapper = sender.swapper;
    tr.merge(sender.tr);
    tr.merge(receiver.tr);
    tr.link_to_roots("request");
    Measured {
        p50_us: median_of_percentiles(&latency, 50.0),
        p90_us: median_of_percentiles(&latency, 90.0),
        peak_rps: median(&rates),
        samples: latency.iter().map(Vec::len).sum(),
        lag_p99_us: percentile(&lag_us, 99.0),
        sent,
        received,
        admitted: after.admitted - before.admitted,
        completed: after.completed - before.completed,
        shed: after.shed - before.shed,
        hits: after.cache.hits - before.cache.hits,
        misses: after.cache.misses - before.cache.misses,
        compiles: after.cache.compiles - before.cache.compiles,
        evictions: after.cache.evictions - before.cache.evictions,
        update_us: swapper.update_us[swaps0..].to_vec(),
        purged: swapper.purged - purged0,
    }
}

/// Per-call timings of the fine-grained probe.
#[derive(Default)]
struct Probe {
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    reply_ns: Vec<f64>,
    fingerprint_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    miss_us: Vec<f64>,
    predict_ns: Vec<f64>,
    compile_us: Vec<f64>,
    terms: Vec<f64>,
    submit_wait_us: Vec<f64>,
    rtt_us: Vec<f64>,
}

fn ns_since(t: Duration) -> f64 {
    (now() - t).as_nanos() as f64
}

/// Replays the first requests of the stream one by one on this thread
/// through the finer public functions each layer offers, timing each.
fn probe(ctx: &Ctx<'_>, opts: &Opts, report: &mut Report) -> Probe {
    let (sv, p) = (ctx.sv, ctx.p);
    let n = if opts.smoke { 300 } else { PROBE_REQUESTS };
    let mut keys = KeyStream::new(opts.seed, ctx.keys(), p.zipf_s);
    // A cache of the benchmark's own, sized and used like the server's.
    let cache = SharedPlanCache::new(&CacheConfig {
        shards: SHARDS,
        budget_bytes: p.budget_bytes,
    });
    if p.prewarm {
        for key in 0..ctx.keys() {
            let (net, batch) = ctx.parts(key);
            if cache.get_or_compile(&sv.suites[0], net, batch).is_err() {
                report.fail(1, "probe: prewarm compile failed");
            }
        }
    }
    let mut client = Client::connect(sv.tcp.addr()).expect("connect the probe client");
    let mut pr = Probe::default();
    for i in 0..n {
        let key = keys.next_key();
        let (net, batch) = ctx.parts(key);
        let suite = &sv.suites[0];
        let want = ctx.refs[key].to_bits();
        report.attempt(1);
        let mut ok = true;

        let t = now();
        let req = Request::Predict {
            tenant: TENANT.to_string(),
            network: net.name().to_string(),
            batch,
            deadline_ms: None,
        };
        let mut frame = Vec::with_capacity(64);
        ok &= write_frame(&mut frame, &req.format()).is_ok();
        pr.encode_ns.push(ns_since(t));
        let t = now();
        let parsed = read_frame(&mut frame.as_slice())
            .ok()
            .flatten()
            .map(|f| Request::parse(&f));
        pr.decode_ns.push(ns_since(t));
        ok &= matches!(&parsed, Some(Ok(r)) if *r == req);

        let t = now();
        black_box(network_fingerprint(black_box(net)));
        pr.fingerprint_ns.push(ns_since(t));

        let misses = cache.stats().misses;
        let t = now();
        let plan = cache.get_or_compile(suite, net, batch);
        let took = now() - t;
        if cache.stats().misses == misses {
            pr.hit_ns.push(took.as_nanos() as f64);
        } else {
            pr.miss_us.push(took.as_secs_f64() * 1e6);
        }
        match plan {
            Ok(plan) => {
                let t = now();
                let s = black_box(plan.predict());
                pr.predict_ns.push(ns_since(t));
                pr.terms.push(plan.num_terms() as f64);
                ok &= s.to_bits() == want;
            }
            Err(_) => ok = false,
        }
        if i < PROBE_COMPILES {
            let t = now();
            let compiled = CompiledPlan::compile(suite, net, batch);
            pr.compile_us.push(secs(t) * 1e6);
            ok &= compiled.is_ok_and(|c| c.predict().to_bits() == want);
        }

        let t = now();
        let served = sv
            .server
            .submit(TENANT, net.name(), batch)
            .and_then(Pending::wait);
        pr.submit_wait_us.push(secs(t) * 1e6);
        ok &= served.is_ok_and(|r| r.seconds().to_bits() == want);

        let t = now();
        let resp = Response::Ok {
            seconds: ctx.refs[key],
            degraded_notes: None,
        };
        let mut reply = Vec::with_capacity(32);
        ok &= write_frame(&mut reply, &resp.format()).is_ok();
        let back = read_frame(&mut reply.as_slice())
            .ok()
            .flatten()
            .map(|f| Response::parse(&f));
        pr.reply_ns.push(ns_since(t));
        ok &= matches!(back, Some(Ok(r)) if r == resp);

        let t = now();
        let called = client.call(&req);
        pr.rtt_us.push(secs(t) * 1e6);
        ok &= matches!(called, Ok(Response::Ok { seconds, .. }) if seconds.to_bits() == want);

        if !ok {
            report.fail(
                1,
                "probe: a layer call failed or disagreed with the reference",
            );
        }
    }
    pr
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn run(opts: &Opts) -> Report {
    let p = params(opts.workload, opts.smoke);
    let mut report = Report::default();
    let mut tr = Tracer::new(opts.trace);
    let (sv, setup_s) = median_setup(|| setup(&p, opts.smoke, &mut tr));
    if p.prewarm {
        report.attempt((sv.nets.len() * p.batches.len()) as u64);
    }
    if sv.prewarm_failures > 0 {
        report.fail(sv.prewarm_failures, "prewarm prediction failed");
    }
    // Reference answers from the uncompiled KW model, outside set-up time.
    let refs: Vec<f64> = (0..sv.nets.len() * p.batches.len())
        .map(|key| {
            let nb = p.batches.len();
            sv.suites[0]
                .kw
                .predict_network(&sv.nets[key / nb], p.batches[key % nb])
                .expect("reference prediction")
        })
        .collect();
    let ctx = Ctx {
        sv: &sv,
        p: &p,
        refs: &refs,
    };

    if !opts.trace {
        let m = measure(&ctx, opts.seed, opts.seconds, &mut tr, &mut report);
        eprintln!(
            "{}: {ROUNDS} rounds of open loop at {:.0} rps ({} latency samples) and \
             closed loop with {OUTSTANDING} in flight; cache hit ratio {:.3}",
            opts.workload.name(),
            p.rate_rps,
            m.samples,
            hit_ratio(m.hits, m.misses)
        );
        set_all(
            &mut report,
            &[
                ("setup_s", setup_s),
                ("p50_us", m.p50_us),
                ("p90_us", m.p90_us),
                ("throughput_per_s", m.peak_rps),
            ],
        );
        return report;
    }

    let untraced = measure(
        &ctx,
        opts.seed,
        opts.seconds / 2.0,
        &mut Tracer::new(false),
        &mut report,
    );
    let m = measure(&ctx, opts.seed, opts.seconds / 2.0, &mut tr, &mut report);
    let pr = probe(&ctx, opts, &mut report);
    write_spans(opts, &tr);

    let cache = sv.server.cache().stats();
    let submit_wait = median(&pr.submit_wait_us);
    let rtt = median(&pr.rtt_us);
    // The stages a request passes through that the probe timed in
    // isolation; the rest of a round trip is sockets and thread wake-ups.
    let stages_us =
        (median(&pr.encode_ns) + median(&pr.decode_ns) + median(&pr.reply_ns)) / 1e3 + submit_wait;
    let suite = &sv.suites[0];
    set_all(
        &mut report,
        &[
            ("gen.lag_p99_us", m.lag_p99_us),
            ("gen.sent", m.sent as f64),
            ("gen.received", m.received as f64),
            ("tcp.rtt_p50_us", rtt),
            ("protocol.encode_p50_ns", median(&pr.encode_ns)),
            ("protocol.decode_p50_ns", median(&pr.decode_ns)),
            ("protocol.reply_p50_ns", median(&pr.reply_ns)),
            ("server.submit_wait_p50_us", submit_wait),
            (
                "server.handoff_p50_us",
                submit_wait - (median(&pr.hit_ns) + median(&pr.predict_ns)) / 1e3,
            ),
            ("server.admitted", m.admitted as f64),
            ("server.completed", m.completed as f64),
            ("server.shed", m.shed as f64),
            ("server.update_suite_p50_us", median(&m.update_us)),
            ("cache.hit_ratio", hit_ratio(m.hits, m.misses)),
            ("cache.hits", m.hits as f64),
            ("cache.misses", m.misses as f64),
            ("cache.compiles", m.compiles as f64),
            ("cache.evictions", m.evictions as f64),
            ("cache.purged", m.purged as f64),
            ("cache.entries", cache.entries as f64),
            ("cache.bytes", cache.bytes as f64),
            ("cache.get_hit_p50_ns", median(&pr.hit_ns)),
            ("cache.get_miss_p50_us", median(&pr.miss_us)),
            ("plan.fingerprint_p50_ns", median(&pr.fingerprint_ns)),
            ("plan.compile_p50_us", median(&pr.compile_us)),
            ("plan.predict_p50_ns", median(&pr.predict_ns)),
            ("plan.terms_mean", mean(&pr.terms)),
            ("plan.resident", cache.entries as f64),
            ("kw.models", suite.kw.num_models() as f64),
            ("kw.kernels", suite.kw.num_kernels() as f64),
            (
                "trace.overhead_pct",
                overhead_pct(untraced.p50_us, m.p50_us),
            ),
            (
                "trace.explained_pct",
                explained_share(tr.spans(), "request") * 100.0,
            ),
            ("trace.rtt_explained_pct", stages_us / rtt * 100.0),
        ],
    );
    set_collect(&mut report, sv.collect_s, sv.collect_rows, &sv.collect);
    report
}
