//! The repo benchmark: one workload per process, timed from outside
//! through the public API of the `dsbn` crates. See README.md.
//!
//! ```text
//! dsbn-benchmark run --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out DIR]
//! dsbn-benchmark agree DIR SETS [WORKLOAD...]
//! dsbn-benchmark list
//! ```

mod agree;
mod checks;
mod cluster;
mod inputs;
mod json;
mod layers;
mod pace;
mod report;
mod run;
mod spec;
mod stats;
mod surface;
mod trace;

use inputs::{Program, Served, SetupTimes};
use report::Failures;
use spec::{Runtime, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: &spec::WORKLOADS[0],
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut named = false;
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?;
                named = true;
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if named {
        Ok(args)
    } else {
        Err("--workload is required".to_owned())
    }
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let outcome = match words.next().as_deref() {
        Some("run") => parse(words).and_then(|args| run_workload(&args)),
        Some("agree") => match (words.next(), words.next().and_then(|n| n.parse().ok())) {
            (Some(dir), Some(sets)) => {
                agree::agree(&PathBuf::from(dir), sets, &words.collect::<Vec<_>>())
            }
            _ => Err("usage: agree DIR SETS [WORKLOAD...]".to_owned()),
        },
        Some("list") => {
            spec::WORKLOADS.iter().for_each(|w| println!("{}", w.name));
            Ok(true)
        }
        _ => Err("usage: dsbn-benchmark run|agree|list ... (see benchmark/README.md)".to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload; `Ok(false)` when a correctness check failed.
fn run_workload(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let size = Size::of(w, args.seconds, args.quick);
    // Events per pass.
    let m = size.pool * size.replays;
    let attempted = size.rounds * (m + spec::HELD_OUT_QUERIES as u64);
    let paced = w.runtime == Runtime::Serve;
    // A run that returns `ClusterError` is a failed operation: it still gets
    // its row, with what was measured before it.
    let cluster_failed = |error: String,
                          file: String,
                          measured: &[report::Metric],
                          so_far: Failures|
     -> Result<bool, String> {
        eprintln!("error: {error}");
        let failures = Failures { cluster_error: 1, ..so_far };
        let head = report::head(args, &size, m, 0, 0);
        report::write(&args.out, &file, report::finish(head, measured, &failures))?;
        Ok(report::print(measured, attempted, &failures))
    };

    // A round sets up (several times, timed; the pass runs on the last), then
    // makes one pass. Every round is the same work on the same inputs, so
    // that each timing has repetitions spread over the whole run to read its
    // quiet value from.
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let (inp, program, times) = inputs::setup(w, &size, args.seed);
        setups.push(times);
        (inp, program)
    };
    let mut passes: Vec<run::Ingest> = Vec::new();
    let mut accuracies = Vec::new();
    let mut failures = Failures::default();
    let mut current = None;
    for round in 0..size.rounds {
        for _ in 0..size.setups_per_group {
            drop(current.take());
            current = Some(timed_setup());
        }
        let (inp, program) = current.as_mut().expect("at least one set-up");
        assert_eq!(inp.events(), m);
        let layout = surface::CounterLayout::new(&inp.net);
        let budgets = checks::counter_budgets(inp, &layout);
        if round == 0 {
            eprintln!(
                "{}: {}\n{} passes of {} events ({} x {}), {} counters, k={}, seed {}{}",
                w.name,
                w.why,
                size.rounds,
                m,
                size.pool,
                size.replays,
                layout.n_counters(),
                w.k,
                args.seed,
                if args.quick { ", QUICK: not comparable" } else { "" }
            );
        }
        let result = match program {
            Program::Sim(tracker) => Ok(run::sim_ingest(inp, &layout, tracker, &size)),
            Program::Cluster(served) => cluster::ingest(&size, inp, served, None),
        };
        let pass = match result {
            Ok(pass) => pass,
            Err(error) => {
                let setup_s = stats::quiet(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
                let measured = report::without_a_run(setup_s, report::peak_rss_mb());
                return cluster_failed(error, format!("{}.json", w.name), &measured, failures);
            }
        };
        let accuracy = checks::accuracy(inp, &layout, &budgets, &pass.readout, spec::EPS);
        let rate_off = (m as f64 / pass.wall_s / spec::SERVE_RATE_PER_S as f64 - 1.0).abs();
        failures.events_unaccounted += pass.events_seen.abs_diff(m)
            + checks::variables_miscounted(&layout, &pass.readout.exact, m);
        failures.queries_out_of_band += accuracy.queries_failed;
        failures.generator_late += u64::from(
            paced
                && stats::percentile(&pass.late_sorted(), 1.0 - spec::LATE_SHARE)
                    > spec::LATE_LIMIT_MS,
        );
        // A quick run is over in a sixth of a second, and flush and
        // teardown alone are a percent of that.
        failures.rate_not_held +=
            u64::from(paced && !args.quick && rate_off > spec::RATE_TOLERANCE);
        failures.passes_differ += u64::from(
            w.runtime == Runtime::Sim && passes.first().is_some_and(|p| p.stats != pass.stats),
        );
        passes.push(pass);
        accuracies.push(accuracy);
    }
    // One more group after the last pass: the set-ups too cover the whole run.
    for _ in 0..size.setups_per_group {
        drop(timed_setup());
    }
    let (inp, program) = current.expect("at least one round");
    let layout = surface::CounterLayout::new(&inp.net);
    let budgets = checks::counter_budgets(&inp, &layout);
    let field = |f: fn(&SetupTimes) -> f64| stats::quiet(&setups.iter().map(f).collect::<Vec<_>>());
    let setup = SetupTimes {
        net_build_s: field(|t| t.net_build_s),
        mint_s: field(|t| t.mint_s),
        init_s: field(|t| t.init_s),
        total_s: field(|t| t.total_s),
    };

    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    eprintln!(
        "passes took {} s, quiet {:.3} s; {} set-ups",
        walls.join(" "),
        report::quiet_wall_s(&passes),
        setups.len()
    );
    let end_to_end = report::end_to_end(&passes, &accuracies, setup.total_s, m);
    let query_samples = passes.iter().map(|p| p.query_us.len()).sum();
    let head = report::head(args, &size, m, query_samples, passes[0].lag_ms.len());
    report::write(
        &args.out,
        &format!("{}.json", w.name),
        report::finish(head.clone(), &end_to_end, &failures),
    )?;

    if !args.trace {
        return Ok(report::print(&end_to_end, attempted, &failures));
    }

    // The traced run: the same work again with a span around each call
    // into a layer, then each layer alone on the same events.
    let mut t = Tracer::new(Instant::now());
    let allocate_s = {
        let id = t.open("core.allocation.allocate", trace::NONE, trace::NONE);
        std::hint::black_box(checks::counter_budgets(&inp, &layout));
        t.close(id);
        t.duration_s(id)
    };
    let traced_wall_s = match &program {
        Program::Sim(_) => None,
        Program::Cluster(_) => {
            let fresh = inputs::init_cluster(w, &size, &inp);
            match cluster::ingest(&size, &inp, &fresh, Some(&mut t)) {
                Ok(run) => Some(run.wall_s),
                Err(error) => {
                    return cluster_failed(error, format!("trace-{}.json", w.name), &[], failures);
                }
            }
        }
    };
    let staged = layers::staged_ingest(&inp, &layout, &budgets, &mut t);
    let staged_s = t.duration_s(staged.root);
    let untraced = &passes[report::fastest(&passes)];
    if w.runtime == Runtime::Sim {
        // The proof that the traced program is the untraced program.
        let same = staged.stats == untraced.stats
            && staged
                .estimates
                .iter()
                .zip(&untraced.readout.estimates)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        failures.staged_mismatch = u64::from(!same);
    }
    let read_batches = (query_samples / spec::READER_BATCH).clamp(1, 2_000) as u32;
    let hub = match &program {
        Program::Sim(tracker) => {
            layers::read_path(
                &inp,
                None,
                |x| tracker.log_query(x),
                |i, x| tracker.classify(i, x),
                read_batches,
                &mut t,
            );
            None
        }
        Program::Cluster(Served { server, hub, .. }) => {
            let (answer, classify) =
                (|x: &[usize]| server.log_query(x), |i, x: &mut [usize]| server.classify(i, x));
            layers::read_path(&inp, Some(server), answer, classify, read_batches, &mut t);
            Some(hub)
        }
    };
    let mean_budget = budgets.iter().sum::<f64>() / budgets.len() as f64;
    let probes = report::Probes {
        setup,
        allocate_s,
        staged_s,
        traced_wall_s: traced_wall_s.unwrap_or(staged_s),
        staged_stats: staged.stats,
        single_counter_ns: layers::single_counter_ns(
            w.k,
            mean_budget,
            size.single_counter_increments,
            args.seed,
        ),
        wire: layers::wire_replay(&inp, &layout),
        resolve_us: hub.map_or(0.0, |hub| layers::resolve_us(hub, layout.n_counters())),
        read_queries: u64::from(read_batches) * spec::READER_BATCH as u64,
        own: t.self_times(),
    };
    let accuracy = &accuracies[report::fastest(&passes)];
    let per_layer = report::per_layer(w, &inp, &layout, &size, &passes, accuracy, &probes);
    if w.runtime == Runtime::Sim {
        let sum =
            per_layer.iter().find(|m| m.name == "bench.layer_sum_frac").expect("a declared metric");
        failures.layers_do_not_sum = u64::from((sum.value - 1.0).abs() > 0.05);
    }
    let doc = report::with_trace(report::finish(head, &per_layer, &failures), &t, &probes.own);
    report::write(&args.out, &format!("trace-{}.json", w.name), doc)?;
    Ok(report::print(&per_layer, attempted, &failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{build_tracker, sprinkler_network, CounterLayout, TrackerConfig};

    fn words(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = parse(words("--workload alarm-serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace, a.quick),
            ("alarm-serve", 7, 10, true, false)
        );
        let a = parse(words("--workload big500-sim --trace 0 --quick")).unwrap();
        assert_eq!((a.seed, a.trace, a.quick), (1, false, true));
        assert!(parse(words("--seed 1")).is_err());
        assert!(parse(words("--workload nope")).is_err());
        assert!(parse(words("--workload alarm-sim --seed x")).is_err());
        assert!(parse(words("--workload alarm-sim --frobnicate")).is_err());
    }

    fn small_inputs(
        net: surface::BayesianNetwork,
        k: usize,
        pool: u64,
        replays: u64,
    ) -> (inputs::Inputs, Size) {
        let cfg = TrackerConfig::new(surface::Scheme::NonUniform).with_k(k).with_seed(5);
        let events = surface::TrainingStream::new(&net, 9).chunks(spec::CHUNK, pool).collect();
        let queries = surface::TrainingStream::new(&net, 10).take(8).collect();
        let size = Size {
            pool,
            replays,
            rounds: 1,
            setups_per_group: 1,
            snapshot_every: 1,
            query_samples: 4,
            single_counter_increments: 1,
        };
        (inputs::Inputs { net, pool: events, replays, queries, cfg }, size)
    }

    fn alarm() -> surface::BayesianNetwork {
        surface::NetworkSpec::by_name("alarm").unwrap().generate(spec::NET_SEED).unwrap()
    }

    /// The staged pipeline is the tracker, bit for bit.
    fn staged_equals_tracker(net: surface::BayesianNetwork, k: usize, pool: u64, replays: u64) {
        let (inp, size) = small_inputs(net, k, pool, replays);
        let layout = CounterLayout::new(&inp.net);
        let budgets = checks::counter_budgets(&inp, &layout);
        let mut tracker = build_tracker(&inp.net, &inp.cfg);
        let untraced = run::sim_ingest(&inp, &layout, &mut tracker, &size);
        let mut t = Tracer::new(Instant::now());
        let staged = layers::staged_ingest(&inp, &layout, &budgets, &mut t);
        assert_eq!(untraced.events_seen, inp.events());
        assert_eq!(staged.stats, untraced.stats);
        assert!(staged.stats.total() > 0);
        for (c, (a, b)) in staged.estimates.iter().zip(&untraced.readout.estimates).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "counter {c}");
        }
        assert_eq!(checks::variables_miscounted(&layout, &untraced.readout.exact, inp.events()), 0);
        assert_eq!(
            checks::variables_miscounted(&layout, &untraced.readout.exact, inp.events() + 1),
            layout.n_vars() as u64
        );
        // Two spans per chunk under one root.
        assert_eq!(t.spans.len() as u64, 1 + 2 * replays * inp.pool.len() as u64);
    }

    #[test]
    fn staged_pipeline_is_the_tracker_on_sprinkler() {
        staged_equals_tracker(sprinkler_network(), 3, 1_000, 3);
    }

    #[test]
    fn staged_pipeline_is_the_tracker_on_alarm() {
        staged_equals_tracker(alarm(), 8, 2_048, 2);
    }

    /// The band check bites: the answers that pass `e^{±eps}` fail a band a
    /// hundred times narrower.
    #[test]
    fn a_narrowed_band_fails_queries() {
        let (inp, size) = small_inputs(alarm(), 8, 16_384, 4);
        let layout = CounterLayout::new(&inp.net);
        let budgets = checks::counter_budgets(&inp, &layout);
        let mut tracker = build_tracker(&inp.net, &inp.cfg);
        let readout = run::sim_ingest(&inp, &layout, &mut tracker, &size).readout;
        assert_eq!(
            checks::accuracy(&inp, &layout, &budgets, &readout, spec::EPS).queries_failed,
            0
        );
        assert!(checks::accuracy(&inp, &layout, &budgets, &readout, 0.001).queries_failed > 0);
    }
}
