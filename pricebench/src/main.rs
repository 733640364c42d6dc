//! `pricebench`: the osp pricing server's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pricebench/Cargo.toml -- \
//!     --workload small_games --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run builds the workload's request stream from `--seed`, replays
//! it through the sequential oracle, and serves it through fresh
//! `ShardPool`s — one pass per pool, alternating a closed loop
//! (throughput) and a slot-paced open loop (latency) until the passes
//! have measured `--seconds`. Pool spawn
//! (and, on `durable_churn`, recovery) is timed as `setup_s`; teardown
//! and reply checking fall outside every timed window. Every reply is
//! checked against the oracle and every finished game is audited; the
//! run exits non-zero if anything failed.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` is the
//! separate traced run: it adds spans around the calls this benchmark
//! makes into each layer, replays the stream in process layer by layer,
//! writes the spans to `<workdir>/spans-<workload>.tsv`, and reports the
//! per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod drive;
mod layers;
mod pin;
mod report;
mod trace;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use osp_core::prelude::Engine;
use osp_server::protocol::Op;
use osp_server::{PoolConfig, ShardPool, DEFAULT_QUEUE_CAP};

use drive::{serve, Loop, Pass};
use report::{median, quantile};
use trace::{SpanStat, Tracer};
use verify::{Expected, Tally};
use workload::{Stream, Workload};

/// The Shapley engine of the pool and of every in-process replay
/// (`osp serve`'s default).
pub const ENGINE: Engine = Engine::Incremental;

/// Pool shards. Shards plus generator threads must fit in `nproc`, and
/// the benchmark's 2-core reference host fits one of each.
pub const SHARDS: usize = 1;

/// The generator is one thread that both submits and drains.
const GENERATOR_THREADS: usize = 1;

/// Outstanding requests in the closed loop; below the queue bound, so
/// the closed loop never meets back-pressure.
const WINDOW: usize = 256;

/// Passes of each loop a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: pricebench --workload <small_games|large_subst|durable_churn> \
                     --seed <n> --seconds <n> --trace <0|1> [--workdir <dir>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut workdir = PathBuf::from(".bench_work");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1) as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            "--workdir" => workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir,
    })
}

/// Replaces `live` with a copy of `template`.
fn restore(template: &Path, live: &Path) -> Result<(), String> {
    match fs::remove_dir_all(live) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", live.display())),
    }
    fs::create_dir_all(live).map_err(|e| format!("cannot create {}: {e}", live.display()))?;
    for entry in fs::read_dir(template).map_err(|e| format!("{}: {e}", template.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().expect("directory entries have names");
        fs::copy(&path, live.join(name)).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Opens pools, serves passes and checks their replies.
struct Runner<'a> {
    workload: &'static Workload,
    stream: &'a Stream,
    expected: &'a Expected,
    /// Durable workloads: the warm-up's directory and the one each pass
    /// reopens a copy of.
    dirs: Option<(PathBuf, PathBuf)>,
    /// CPUs of the shard worker and of the generator, when pinned.
    placement: Option<(usize, usize)>,
    /// Spins on the worker's CPU during open-loop passes.
    warmer: Option<pin::Warmer>,
    setups: Vec<f64>,
    tally: Tally,
    retries: u64,
}

impl<'a> Runner<'a> {
    fn new(
        workload: &'static Workload,
        stream: &'a Stream,
        expected: &'a Expected,
        workdir: &Path,
        placement: Option<(usize, usize)>,
    ) -> Result<Self, String> {
        let mut runner = Runner {
            workload,
            stream,
            expected,
            dirs: None,
            placement,
            warmer: placement.and_then(|(shard, _)| pin::Warmer::start(shard)),
            setups: Vec::new(),
            tally: Tally::default(),
            retries: 0,
        };
        if let Some(durable) = &workload.durable {
            // The warm-up serves the first slots into an empty
            // directory; its shutdown leaves a checkpoint plus a log
            // suffix for every pass to recover.
            let base = workdir.join(workload.name);
            let (template, live) = (base.join("template"), base.join("live"));
            let _ = fs::remove_dir_all(&base);
            let (pool, _) = runner.spawn(PoolConfig {
                wal_dir: Some(template.clone()),
                checkpoint_every: durable.checkpoint_every,
                ..PoolConfig::in_memory(SHARDS, DEFAULT_QUEUE_CAP, ENGINE)
            })?;
            let pass = serve(
                &pool,
                stream,
                0..stream.served_from,
                Loop::Closed { window: WINDOW },
                None,
            );
            let _ = pool.shutdown();
            runner.tally.add(expected.check(0, &pass.replies));
            runner.dirs = Some((template, live));
        }
        Ok(runner)
    }

    /// Spawns a pool whose worker runs on the shard CPU, then moves the
    /// generator (this thread) to its own CPU. Returns the pool and the
    /// seconds spent inside `ShardPool::with_config`.
    fn spawn(&self, config: PoolConfig) -> Result<(ShardPool, f64), String> {
        if let Some((shard, _)) = self.placement {
            pin::pin_current(shard);
        }
        let start = Instant::now();
        let pool = ShardPool::with_config(config);
        let setup = start.elapsed().as_secs_f64();
        if let Some((_, generator)) = self.placement {
            pin::pin_current(generator);
        }
        Ok((pool?, setup))
    }

    fn open(&mut self) -> Result<ShardPool, String> {
        let mut config = PoolConfig::in_memory(SHARDS, DEFAULT_QUEUE_CAP, ENGINE);
        if let (Some((template, live)), Some(durable)) = (&self.dirs, &self.workload.durable) {
            restore(template, live)?;
            config.wal_dir = Some(live.clone());
            config.checkpoint_every = durable.checkpoint_every;
        }
        let (pool, setup) = self.spawn(config)?;
        self.setups.push(setup);
        Ok(pool)
    }

    /// One pass: set up, serve, tear down, check.
    fn pass(&mut self, mode: Loop, tracer: Option<&mut Tracer>) -> Result<Pass, String> {
        let pool = self.open()?;
        let pass = serve(&pool, self.stream, self.stream.served(), mode, tracer);
        let _ = pool.shutdown();
        self.tally
            .add(self.expected.check(self.stream.served_from, &pass.replies));
        self.retries += pass.retries;
        Ok(pass)
    }

    fn closed(&mut self, tracer: Option<&mut Tracer>) -> Result<Pass, String> {
        self.pass(Loop::Closed { window: WINDOW }, tracer)
    }

    fn open_loop(&mut self, tracer: Option<&mut Tracer>) -> Result<Pass, String> {
        let period = Duration::from_millis(self.workload.slot_ms);
        // Keeps the worker's CPU from going idle between slot bursts.
        let spin = |runner: &Self, on| {
            if let Some(warmer) = &runner.warmer {
                warmer.spin(on);
            }
        };
        spin(self, true);
        let pass = self.pass(Loop::Open { period }, tracer);
        spin(self, false);
        pass
    }

    fn rate(&self, pass: &Pass) -> f64 {
        pass.replies.len() as f64 / pass.window_s
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The untraced run: end-to-end metrics.
///
/// Throughput is the median over closed-loop passes. For latency, each
/// request's latency is the median of its latencies over the open-loop
/// passes, and `p50_ms`/`p99_ms` (`tick_*`: ticks only) are percentiles
/// of those medians. Every pass serves the same stream on the same
/// schedule, so a delay the program makes itself (a slot burst's queue,
/// a checkpoint stall, the final snapshot burst) falls on the same
/// requests in every pass and stays in their medians. The 2-CPU host
/// instead stalls our CPUs for ms at random moments: 5-10% of slot
/// bursts meet one, a different burst each pass, and percentiles over
/// single passes or over every pass pooled followed how often that
/// happened. Over six runs of each workload, `large_subst`'s `p99_ms`
/// spread (quartile distance over median) 0.47 as a median over passes
/// of each pass's p99 and 0.92 pooled, and 0.06 this way.
fn end_to_end(args: &Args, runner: &mut Runner) -> Result<Vec<(&'static str, f64)>, String> {
    let ticks: Vec<bool> = runner.stream.requests[runner.stream.served()]
        .iter()
        .map(|r| matches!(r.op, Op::Tick { .. }))
        .collect();
    let (mut rates, mut open) = (Vec::new(), Vec::new());
    // The latency medians need more passes than the throughput median,
    // and open-loop passes are longer: the open loop gets two thirds of
    // the time.
    let (mut closed_s, mut open_s) = (0.0, 0.0);
    while closed_s + open_s < args.seconds || rates.len() < MIN_PASSES || open.len() < MIN_PASSES {
        if 2.0 * closed_s <= open_s {
            let pass = runner.closed(None)?;
            rates.push(runner.rate(&pass));
            closed_s += pass.window_s;
        } else {
            let pass = runner.open_loop(None)?;
            open_s += pass.window_s;
            open.push(pass.latency_ns);
        }
    }
    let mut all = report::median_per_index(&open);
    let mut tick: Vec<u64> = all
        .iter()
        .zip(&ticks)
        .filter_map(|(&ns, &is)| is.then_some(ns))
        .collect();
    all.sort_unstable();
    tick.sort_unstable();
    let pick = |sorted: &[u64], q| ms(quantile(sorted, q));
    let (p50, p99) = (pick(&all, 0.50), pick(&all, 0.99));
    let (tick_p50, tick_p99) = (pick(&tick, 0.50), pick(&tick, 0.99));
    let measured = closed_s + open_s;
    let throughput = median(&mut rates);
    let stream = runner.stream;
    println!(
        "passes: {} closed (window {WINDOW}; {:.0}..{:.0} req/s), {} open (a slot released \
         every {} ms); {measured:.2} s measured",
        rates.len(),
        rates[0],
        rates[rates.len() - 1],
        open.len(),
        runner.workload.slot_ms
    );
    let requests = stream.served().len();
    println!(
        "samples: percentiles over {requests} requests and {} ticks, each request's latency the \
         median of its {} open-loop passes",
        tick.len(),
        open.len()
    );
    println!(
        "units: {throughput:.0} req/s = {:.0} user-slot events/s ({} user-slot events per {} \
         requests, the unit of BENCH_mechanisms.json's ops_per_sec)",
        throughput * stream.user_slots as f64 / requests as f64,
        stream.user_slots,
        requests
    );
    Ok(vec![
        ("throughput_rps", throughput),
        ("p50_ms", p50),
        ("p99_ms", p99),
        ("tick_p50_ms", tick_p50),
        ("tick_p99_ms", tick_p99),
        ("setup_s", median(&mut runner.setups)),
        ("peak_rss_mb", report::peak_rss_mb()),
    ])
}

/// The traced run: per-layer metrics.
fn per_layer(args: &Args, runner: &mut Runner) -> Result<Vec<(&'static str, f64)>, String> {
    let workload = runner.workload;
    let stream = runner.stream;
    let span_path = args.workdir.join(format!("spans-{}.tsv", workload.name));
    let mut tracer = Tracer::create(&span_path)?;
    let (mut untraced, mut traced, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut roundtrip_ns, mut roundtrips) = (0u64, 0u64);
    let (mut depth_max, mut req_bytes, mut resp_bytes) = (0u64, 0u64, 0u64);
    let mut measured = 0.0;
    while measured < args.seconds || traced.len() < MIN_PASSES {
        let plain = runner.closed(None)?;
        untraced.push(runner.rate(&plain));
        let closed = runner.closed(Some(&mut tracer))?;
        traced.push(runner.rate(&closed));
        tracer.fold()?;
        // Round trips of the open loop only: in the closed loop they
        // mostly measure the window's own queue.
        let before = tracer
            .stat("shard.roundtrip")
            .map_or((0, 0), |s| (s.count, s.total_ns));
        let open = runner.open_loop(Some(&mut tracer))?;
        tracer.fold()?;
        let after = tracer
            .stat("shard.roundtrip")
            .map_or((0, 0), |s| (s.count, s.total_ns));
        roundtrips += after.0 - before.0;
        roundtrip_ns += after.1 - before.1;
        late.extend_from_slice(&open.late_ns);
        for pass in [&closed, &open] {
            depth_max = depth_max.max(pass.queue_depth_max);
            req_bytes += pass.req_bytes;
            resp_bytes += pass.resp_bytes;
        }
        measured += plain.window_s + closed.window_s + open.window_s;
    }
    let pool_rps = median(&mut untraced);
    let traced_rps = median(&mut traced);
    late.sort_unstable();

    let inproc_rps = layers::game_rate(stream, 3);
    layers::game_spans(stream, &mut tracer);
    let strings = layers::econ_spans(stream, &mut tracer);
    let core = layers::CoreTrace::new(stream);
    let (mut full, mut quiet) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        full.push(core.clone().play(false, None));
        quiet.push(core.clone().play(true, None));
    }
    let (full, quiet) = (median(&mut full), median(&mut quiet));
    let addon_advances = core.addon_advances();
    core.play(false, Some(&mut tracer));
    let wal = match (&runner.dirs, &workload.durable) {
        (Some((template, _)), Some(durable)) => {
            let probe = args.workdir.join(workload.name).join("probe");
            restore(template, &probe)?;
            let figures = layers::wal_spans(stream, &probe, durable.checkpoint_every, &mut tracer)?;
            let _ = fs::remove_dir_all(&probe);
            Some(figures)
        }
        _ => None,
    };
    let stats = tracer.finish()?;
    let spans: u64 = stats.values().map(|s| s.count).sum();
    let mean = |name: &str| trace::mean_us(&stats, name);

    print_layers(&stats);
    println!(
        "tracing overhead: untraced {pool_rps:.0} req/s, traced {traced_rps:.0} req/s ({:+.1}%)",
        (traced_rps - pool_rps) / pool_rps * 100.0
    );
    println!(
        "spans: {spans} recorded, first {} written to {}",
        spans.min(trace::FILE_CAP),
        span_path.display()
    );
    let passes_requests = (2 * traced.len() * stream.served().len()) as f64;
    let attempted = runner.tally.attempted.max(1) as f64;
    Ok(vec![
        ("loadgen.late_p99_us", quantile(&late, 0.99) as f64 / 1e3),
        (
            "loadgen.queue_full_retries",
            runner.retries as f64 * 1e3 / attempted,
        ),
        ("protocol.decode_us", mean("protocol.decode")),
        ("protocol.encode_us", mean("protocol.encode")),
        ("protocol.req_bytes", req_bytes as f64 / passes_requests),
        ("protocol.resp_bytes", resp_bytes as f64 / passes_requests),
        ("shard.submit_us", mean("shard.submit")),
        (
            "shard.roundtrip_us",
            roundtrip_ns as f64 / roundtrips.max(1) as f64 / 1e3,
        ),
        ("shard.queue_depth_max", depth_max as f64),
        ("shard.pool_overhead_ratio", inproc_rps / pool_rps),
        ("game.handle_us.create", mean("game.handle.create")),
        ("game.handle_us.arrive", mean("game.handle.arrive")),
        ("game.handle_us.revise", mean("game.handle.revise")),
        ("game.handle_us.tick", mean("game.handle.tick")),
        ("game.handle_us.price", mean("game.handle.price")),
        ("game.handle_us.snapshot", mean("game.handle.snapshot")),
        ("game.inproc_rps", inproc_rps),
        ("core.advance_us", mean("core.advance")),
        ("core.submit_us", mean("core.submit")),
        ("core.events_per_s", stream.user_slots as f64 / full),
        (
            "core.report_us",
            if addon_advances == 0 {
                0.0
            } else {
                (full - quiet) / addon_advances as f64 * 1e6
            },
        ),
        (
            "econ.money_parse_us",
            stats
                .get("econ.money_parse")
                .map_or(0.0, |s| s.total_ns as f64 / strings.max(1) as f64 / 1e3),
        ),
        ("wal.append_us", mean("wal.append")),
        (
            "wal.bytes_per_record",
            wal.as_ref().map_or(0.0, |w| w.bytes_per_record),
        ),
        ("wal.checkpoint_ms", mean("wal.checkpoint") / 1e3),
        (
            "wal.checkpoints",
            wal.as_ref().map_or(0.0, |w| w.checkpoints as f64),
        ),
        ("wal.recover_s", mean("wal.recover") / 1e6),
    ])
}

/// Prints each layer's self time: the time its spans cover minus what
/// their children cover, summed over the layer's span names.
fn print_layers(stats: &BTreeMap<&'static str, SpanStat>) {
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, stat) in stats {
        let layer = name.split('.').next().expect("split yields one item");
        let entry = layers.entry(layer).or_default();
        entry.0 += stat.self_ns;
        entry.1 += stat.count;
    }
    println!(
        "layer self time, summed over spans (requests in flight overlap, so a served layer can \
         sum to more than the wall time):"
    );
    for (layer, (self_ns, count)) in &layers {
        println!("  {layer:<10} {:>12.3} ms over {count} spans", ms(*self_ns));
    }
    println!("span means:");
    for (name, stat) in stats {
        println!(
            "  {name:<24} {:>12.3} us mean, {:>12.3} us self mean, {} spans",
            stat.mean_us(),
            stat.self_ns as f64 / stat.count.max(1) as f64 / 1e3,
            stat.count
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} shards={SHARDS} generator_threads={GENERATOR_THREADS} engine={ENGINE:?}"
    );
    if SHARDS + GENERATOR_THREADS > nproc {
        return Err(format!(
            "refusing to run: {SHARDS} shard(s) + {GENERATOR_THREADS} generator thread(s) \
             exceed nproc={nproc}"
        ));
    }
    let workload = args.workload;
    fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("cannot create {}: {e}", args.workdir.display()))?;
    let built = Instant::now();
    let stream = workload.stream(args.seed);
    let expected = Expected::new(&stream);
    println!(
        "workload: {} seed={} trace={} requests={} served={} user_slot_events={} (built and \
         oracle-replayed in {:.2} s)",
        workload.name,
        args.seed,
        u8::from(args.trace),
        stream.requests.len(),
        stream.served().len(),
        stream.user_slots,
        built.elapsed().as_secs_f64()
    );
    println!("why: {}", workload.why);
    let cpus = pin::allowed_cpus();
    let placement = (cpus.len() >= SHARDS + GENERATOR_THREADS).then(|| (cpus[0], cpus[1]));
    let mut runner = Runner::new(workload, &stream, &expected, &args.workdir, placement)?;
    match placement {
        Some((shard, generator)) => println!(
            "placement: shard worker on cpu {shard}, generator on cpu {generator}; \
             open-loop warmer on cpu {shard}: {}",
            if runner.warmer.is_some() {
                "on"
            } else {
                "unavailable"
            }
        ),
        None => println!("placement: unpinned (cpu affinity unavailable)"),
    }
    // Warm-up: one untimed pass; its set-up is not a sample either.
    runner.closed(None)?;
    runner.setups.clear();
    let values = if args.trace {
        per_layer(args, &mut runner)?
    } else {
        end_to_end(args, &mut runner)?
    };
    if let Some((_, live)) = &runner.dirs {
        let _ = fs::remove_dir_all(live);
    }
    let tally = runner.tally;
    println!(
        "correctness: wrong_replies={} count, audit_violations={} count, error_rate={} \
         ((errors {} + unanswered {}) / attempted {}), audit_overflows={} count",
        tally.wrong,
        tally.audit_violations,
        (tally.errors + tally.unanswered) as f64 / tally.attempted.max(1) as f64,
        tally.errors,
        tally.unanswered,
        tally.attempted,
        tally.audit_overflows
    );
    if tally.audit_overflows > 0 {
        println!(
            "warning: {} finished games could not be audited: osp_core::audit panicked on i128 \
             overflow in a Ratio sum (a defect of the audit; the replies matched the oracle)",
            tally.audit_overflows
        );
    }
    let defs = if args.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    report::emit(
        defs,
        &values,
        tally.attempted,
        tally.failed(),
        tally.clean(),
    );
    Ok(tally.clean())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pricebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("pricebench: replies failed the correctness check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pricebench: {e}");
            ExitCode::FAILURE
        }
    }
}
