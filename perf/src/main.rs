//! Wall-clock benchmark of a whole Kosha NFS op and of every layer under
//! it. `README.md` beside this crate defines the workloads and metrics;
//! `BENCHMARK.json` at the root of the repository declares them.

mod alloc;
mod check;
mod cluster;
mod json;
mod layers;
mod sys;
mod trace;
mod workloads;

use json::Json;
use layers::percentile;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Layer;
use workloads::{Bench, Timer, WINDOW};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The declaration this binary is checked against, embedded at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end run sets the cluster up at least this many times and for
/// at least this long; the first cluster is the one measured.
const MIN_SETUPS: usize = 15;
const MIN_SETUP_TIME: Duration = Duration::from_secs(3);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    quick: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Puts glibc malloc into the state a long-running daemon reaches. Its
/// mmap threshold starts at 128 KiB and rises to the size of the largest
/// mmapped block freed so far; until it has risen past the 128 KiB payload
/// buffers, each of them is an `mmap`, 32 page faults and a `munmap`, and
/// a 128 KiB op takes 2.5 times as long. Whether and when that happens
/// depends on what else the process has freed, the benchmark's own
/// buffers included. Freeing one block just under the threshold's 32 MiB
/// ceiling settles it for the whole run.
fn settle_allocator() {
    drop(black_box(Vec::<u8>::with_capacity(31 << 20)));
}

fn main() -> ExitCode {
    settle_allocator();
    let decl = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] \
                 [--quick]\n       perf --check [--seed <n>] [--seconds <n>] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = match (args.seconds, args.quick) {
        (Some(s), _) => s,
        (None, true) => 1,
        (None, false) => decl
            .get("run_seconds")
            .and_then(Json::num)
            .expect("run_seconds") as u64,
    };
    if args.check {
        return check::run(&decl, args.seed, seconds, args.quick);
    }
    let names = workload_names(&decl);
    let Some(workload) = args.workload.filter(|w| names.contains(&w.as_str())) else {
        eprintln!("perf: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };

    let run = if args.traced {
        alloc::enable();
        traced_run(&workload, args.seed, args.quick)
    } else {
        end_to_end_run(
            &workload,
            args.seed,
            Duration::from_secs(seconds),
            args.quick,
        )
    };
    report(&decl, args.traced, &run)
}

/// The workloads `BENCHMARK.json` declares.
fn workload_names(decl: &Json) -> Vec<&str> {
    decl.get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .filter_map(|w| w.get("name")?.str())
        .collect()
}

struct Run {
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
}

/// Prints every metric by name and unit, then the result line. Fails the
/// run if the metrics measured are not exactly the ones declared.
fn report(decl: &Json, traced: bool, run: &Run) -> ExitCode {
    let section = if traced { "per_layer" } else { "end_to_end" };
    let declared = decl.get(section).expect("metric section").arr();
    let mut consistent = declared.len() == run.metrics.len();
    let mut fields = Vec::new();
    for d in declared {
        let name = d.get("name").and_then(Json::str).expect("metric name");
        let unit = d.get("unit").and_then(Json::str).expect("metric unit");
        match run.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => {
                println!("{name:<56} {v:>16.4} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            other => {
                eprintln!("perf: declared metric {name} not measured: {other:?}");
                consistent = false;
            }
        }
    }
    if !consistent {
        eprintln!("perf: measured metrics differ from BENCHMARK.json {section}");
        return ExitCode::FAILURE;
    }
    let correct = run.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How long one pass of a bench's clients lasts.
#[derive(Clone, Copy)]
enum Phase {
    For(Duration),
    /// Ops per client.
    Ops(u64),
}

/// What one pass measured: a timer per client, all on one epoch.
struct Pass {
    timers: Vec<Timer>,
    failed: u64,
}

impl Pass {
    fn ops(&self) -> u64 {
        self.timers
            .iter()
            .map(|t| t.latencies_ns.len() as u64)
            .sum()
    }

    fn mean_latency_ns(&self) -> f64 {
        let total: u64 = self
            .timers
            .iter()
            .flat_map(|t| &t.latencies_ns)
            .map(|&l| u64::from(l))
            .sum();
        total as f64 / self.ops() as f64
    }
}

/// Runs every client of `bench` on a thread of its own for `phase`. The
/// first client's timer samples process CPU time at window ends.
fn run_pass(bench: &mut Bench, phase: Phase, sample_cpu: bool) -> Pass {
    let threads_before = sys::live_threads();
    let epoch = Instant::now();
    let results: Vec<(Timer, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = bench
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || {
                    let mut timer = Timer::new(epoch, sample_cpu && i == 0);
                    let mut failed = 0;
                    loop {
                        let done = match phase {
                            Phase::For(length) => timer.now >= epoch + length,
                            Phase::Ops(n) => timer.latencies_ns.len() as u64 >= n,
                        };
                        if done {
                            return (timer, failed);
                        }
                        failed += u64::from(!client.step(&mut timer));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // A joined thread stays in /proc for a moment, CPU time and all. Wait
    // until it has gone, or it drops out of the process total in the
    // middle of the next pass.
    let patience = Instant::now() + Duration::from_secs(1);
    while sys::live_threads() > threads_before && Instant::now() < patience {
        std::thread::yield_now();
    }
    let (timers, failures): (Vec<Timer>, Vec<u64>) = results.into_iter().unzip();
    Pass {
        timers,
        failed: failures.iter().sum(),
    }
}

/// One window of a pass, over all clients.
struct Window {
    index: usize,
    ops: usize,
    cpu_ns: u64,
}

/// The windows every client completed, fastest first. A window is closed
/// by the first op that starts after it, so the last one of a pass, which
/// no op follows, is left out.
fn ranked_windows(pass: &Pass) -> Vec<Window> {
    let complete = pass
        .timers
        .iter()
        .map(|t| t.window_ends.len())
        .min()
        .expect("a client");
    let cpu = pass.timers[0]
        .window_cpu_ns
        .as_ref()
        .expect("the first timer samples CPU time");
    // Window 0 has no CPU reading at its start. A thread that exits takes
    // its CPU time out of the process total; a window in which the total
    // fell is not used.
    let mut windows: Vec<Window> = (1..complete)
        .filter_map(|w| {
            Some(Window {
                index: w,
                ops: pass
                    .timers
                    .iter()
                    .map(|t| t.window_ends[w] - t.window_ends[w - 1])
                    .sum(),
                cpu_ns: cpu[w].checked_sub(cpu[w - 1])?,
            })
        })
        .collect();
    windows.sort_by_key(|w| std::cmp::Reverse(w.ops));
    windows
}

fn end_to_end_run(workload: &str, seed: u64, length: Duration, quick: bool) -> Run {
    let timed_setup = || {
        let start = Instant::now();
        let bench = Bench::setup(workload, seed, false);
        (bench, start.elapsed().as_secs_f64())
    };
    let (mut bench, first_setup_s) = timed_setup();
    let mut setup_s = vec![first_setup_s];

    // A fixed number of ops warms the caches, so memory is read after the
    // same work on every run however fast the machine is at the moment.
    let warm = run_pass(&mut bench, Phase::Ops(fixed_ops(workload)), false);
    let peak_rss_mib = sys::peak_rss_mib();
    let pass = run_pass(&mut bench, Phase::For(length), true);
    let (checks, check_failures) = bench.final_checks();
    drop(bench);

    // The other set-ups come last, where they cannot raise the peak that
    // was read above. Like the windows, the fastest tenth stands for all.
    let first_extra = Instant::now();
    while !quick && (setup_s.len() < MIN_SETUPS || first_extra.elapsed() < MIN_SETUP_TIME) {
        setup_s.push(timed_setup().1);
    }
    setup_s.sort_by(f64::total_cmp);
    setup_s.truncate(setup_s.len().div_ceil(10));
    let setup_s = setup_s.iter().sum::<f64>() / setup_s.len() as f64;

    // The fastest tenth of the windows stands for the run: see README.md.
    let mut windows = ranked_windows(&pass);
    let all = windows.len();
    windows.truncate(all.div_ceil(10));
    let mut latencies_ns: Vec<u64> = Vec::new();
    for w in &windows {
        for t in &pass.timers {
            let ops = &t.latencies_ns[t.window_ends[w.index - 1]..t.window_ends[w.index]];
            latencies_ns.extend(ops.iter().map(|&l| u64::from(l)));
        }
    }
    latencies_ns.sort_unstable();
    let ops = latencies_ns.len() as f64;
    let cpu_ns: u64 = windows.iter().map(|w| w.cpu_ns).sum();
    eprintln!(
        "{workload}: {} latency samples from the fastest {} of {all} windows",
        latencies_ns.len(),
        windows.len(),
    );

    let metrics = vec![
        (
            "ops_per_s".to_string(),
            ops / (windows.len() as f64 * WINDOW.as_secs_f64()),
        ),
        (
            "op_p50_us".to_string(),
            percentile(&latencies_ns, 50) as f64 / 1e3,
        ),
        (
            "op_p99_us".to_string(),
            percentile(&latencies_ns, 99) as f64 / 1e3,
        ),
        ("cpu_us_per_op".to_string(), cpu_ns as f64 / 1e3 / ops),
        ("setup_s".to_string(), setup_s),
        ("peak_rss_mib".to_string(), peak_rss_mib),
    ];
    Run {
        metrics,
        attempted: warm.ops() + pass.ops() + checks,
        failed: warm.failed + pass.failed + check_failures,
    }
}

/// Ops per client in an end-to-end run's warm-up, and in the traced pass
/// and the untraced pass it is compared with: fixed, so that memory and
/// the count metrics are read after the same work on every run.
fn fixed_ops(workload: &str) -> u64 {
    match workload {
        "meta_sim" => 60_000,
        "read_sim" => 6_000,
        "write_sim" => 3_000,
        _ => 15_000,
    }
}

/// Upper bound on spans per op, for the span buffer's reservation.
const SPANS_PER_OP: usize = 24;

fn traced_run(workload: &str, seed: u64, quick: bool) -> Run {
    let scale = if quick { 10 } else { 1 };
    let mut metrics = Vec::new();
    layers::run(scale, &mut metrics);

    let ops = fixed_ops(workload) / scale;
    let warm = Phase::Ops(ops / 4);
    let threaded = workload == "mix_thr";

    // The same op stream twice on fresh clusters: plain, then traced.
    let mut plain = Bench::setup(workload, seed, false);
    let plain_warm = run_pass(&mut plain, warm, false);
    let events0 = reactor(&plain).map_or(0, |(events, _, _)| events);
    let switches0 = sys::ctx_switches();
    let plain_pass = run_pass(&mut plain, Phase::Ops(ops), false);
    let switches = sys::ctx_switches() - switches0;
    let reactor_after = reactor(&plain);
    let (plain_checks, plain_check_failures) = plain.final_checks();
    drop(plain);

    let mut traced = Bench::setup(workload, seed, true);
    let clients = traced.clients.len() as u64;
    let traced_warm = run_pass(&mut traced, warm, false);
    let payload0: u64 = traced.clients.iter().map(|c| c.payload_bytes()).sum();
    trace::start((ops * clients) as usize * SPANS_PER_OP);
    let (_, alloc_bytes0) = alloc::snapshot();
    let traced_pass = run_pass(&mut traced, Phase::Ops(ops), false);
    let (_, alloc_bytes1) = alloc::snapshot();
    let summary = trace::stop();
    let payload: u64 = traced
        .clients
        .iter()
        .map(|c| c.payload_bytes())
        .sum::<u64>()
        - payload0;
    let (traced_checks, traced_check_failures) = traced.final_checks();
    drop(traced);

    let total_ops = (ops * clients) as f64;
    let mut put = |name: String, value: f64| metrics.push((name, value));
    let mut rpcs = 0;
    for layer in Layer::ALL {
        let l = &summary.layers[layer as usize];
        let name = layer.name();
        // Parent links are exact only where the op runs on one thread.
        let own = |v: u64| if threaded { 0.0 } else { v as f64 / total_ops };
        put(format!("{name}.self_ns_per_op"), own(l.self_ns()));
        put(format!("{name}.allocs_per_op"), own(l.self_allocs()));
        put(
            format!("{name}.alloc_bytes_per_op"),
            own(l.self_alloc_bytes()),
        );
        put(
            format!("{name}.busy_ns_per_op"),
            l.busy_ns as f64 / total_ops,
        );
        if layer != Layer::Mount {
            rpcs += l.calls;
            put(format!("{name}.calls_per_op"), l.calls as f64 / total_ops);
            put(
                format!("{name}.wire_bytes_per_op"),
                l.wire_bytes as f64 / total_ops,
            );
        }
    }
    put("trace.rpcs_per_op".to_string(), rpcs as f64 / total_ops);
    put(
        "trace.alloc_bytes_per_payload_byte".to_string(),
        (alloc_bytes1 - alloc_bytes0 - summary.untraced_alloc_bytes) as f64 / payload as f64,
    );
    put(
        "trace.overhead_ratio".to_string(),
        traced_pass.mean_latency_ns() / plain_pass.mean_latency_ns(),
    );
    let (events, p50, p99) = reactor_after.unwrap_or((0, 0, 0));
    put(
        "rpc.reactor_events_per_op".to_string(),
        (events - events0) as f64 / total_ops,
    );
    put("rpc.reactor_dispatch_p50_ns".to_string(), p50 as f64);
    put("rpc.reactor_dispatch_p99_ns".to_string(), p99 as f64);
    put(
        "rpc.ctx_switches_per_op".to_string(),
        if threaded {
            switches as f64 / total_ops
        } else {
            0.0
        },
    );

    let passes = [&plain_warm, &plain_pass, &traced_warm, &traced_pass];
    Run {
        metrics,
        attempted: passes.iter().map(|p| p.ops()).sum::<u64>() + plain_checks + traced_checks,
        failed: passes.iter().map(|p| p.failed).sum::<u64>()
            + plain_check_failures
            + traced_check_failures,
    }
}

/// The reactor's own telemetry, if the bench runs on the threaded
/// transport: `(events dispatched, dispatch p50 ns, dispatch p99 ns)`,
/// cumulative since the transport was created.
fn reactor(bench: &Bench) -> Option<(u64, u64, u64)> {
    let cluster::Transport::Threaded(net) = &bench.cluster.transport else {
        return None;
    };
    let registry = &net.obs().registry;
    let dispatch = registry.histogram("kosha_reactor_dispatch_latency_nanos");
    Some((
        registry.counter("kosha_reactor_events_total").get(),
        dispatch.quantile(0.5),
        dispatch.quantile(0.99),
    ))
}
