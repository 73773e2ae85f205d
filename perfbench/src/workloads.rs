//! The four workloads. Each is a closed loop of repetitions: the next
//! repetition starts only when the previous one's merged, rendered output
//! is complete. A repetition covers its own seed range, so a run samples
//! many seeds, and its rate is one sample of `trials_per_s`.

use std::path::PathBuf;
use std::time::Instant;

use agreement_adversary::build_from_genome;
use agreement_core::experiments::Scale;
use agreement_core::orchestrate::Orchestrator;
use agreement_core::{
    scenario_registry, stream_records, Campaign, JsonlSink, ProtocolSpec, ScenarioSpec, TrialRecord,
};
use agreement_model::{derive_seed, Bit};
use agreement_search::{
    replay, run_search, CorpusEntry, Predicate, ScheduleArtifact, SearchConfig,
};

use crate::checker::{
    audit_outcome, audit_trial, check_committee_bound, check_jsonl, check_record,
    check_search_budget, check_tiling, fingerprint,
};
use crate::layers::{
    best_decision_time, checkpoint_probe, report_corpus, wire_probe, workspace_probe, RangeClock,
    RenderSpans, SearchSpans, SimSpans,
};
use crate::procfs::{cpu_seconds, loopback_bytes, own_cpu_seconds, peak_rss_mb};
use crate::{median, work_dir, Args, Outcome, Rep};

pub const NAMES: &[&str] = &[
    "campaign_e1_n13",
    "sharded_psync_n7",
    "subquad_n10000",
    "search_e1_n7",
];

/// Every run measures at least this many repetitions, however short
/// `--seconds` is.
const MIN_REPS: u64 = 5;

/// The search workload's generation size and per-repetition trial budget.
const SEARCH_BATCH: u64 = 64;
const SEARCH_BUDGET: u64 = 4096;
const SEARCH_SETUPS: usize = 31;

/// A single-process campaign workload on `Campaign::serial()`.
///
/// Set-ups run the registered spec's own first trial rather than one of the
/// run's seeds: `setup_s` is the fixed cost of resolving a spec and warming
/// a fresh workspace, and a seed-dependent trial length would only add
/// spread to it.
struct CampaignShape {
    spec: &'static str,
    trials_per_rep: u64,
    /// Fresh set-ups whose median is `setup_s`.
    setups: usize,
    /// Repetitions whose sampled trial is replayed and audited.
    audits: u64,
    /// Trials of the orchestration probe of a traced run.
    probe_trials: u64,
    /// Fresh and warm runs of the workspace probe.
    workspace_runs: (usize, usize),
    /// Generation size of the search probe of a traced run.
    search_batch: u64,
    label: u64,
}

const CAMPAIGN_E1: CampaignShape = CampaignShape {
    spec: "e1/reset-tolerant/split-vote/split/n13t2",
    trials_per_rep: 400,
    setups: 31,
    audits: 16,
    probe_trials: 2000,
    workspace_runs: (5, 400),
    search_batch: 64,
    label: 0xE1_13,
};

const SUBQUAD: CampaignShape = CampaignShape {
    spec: "subquad/sampled-committee27/fair-round-robin/unanimous-1/n10000t9",
    trials_per_rep: 4,
    setups: 7,
    audits: 2,
    probe_trials: 8,
    workspace_runs: (3, 20),
    search_batch: 2,
    label: 0x5AB_10000,
};

const SHARDED_SPEC: &str = "psync/ben-or/benign-eventual/unanimous-1/n7t1";
const SHARDED_TRIALS: u64 = 4000;
const SHARDED_SETUPS: usize = 21;
/// Repetitions whose merged document is compared with a serial run and
/// whose sampled trial is audited, after timing.
const SHARDED_CHECKED_REPS: u64 = 16;
const SEARCH_SPEC: &str = "e1/reset-tolerant/split-vote/split/n7t1";

pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("work directory: {e}"))?;
    match args.workload.as_str() {
        "campaign_e1_n13" => campaign(args, &CAMPAIGN_E1),
        "subquad_n10000" => campaign(args, &SUBQUAD),
        "sharded_psync_n7" => sharded(args),
        "search_e1_n7" => search(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The seed range of a run: every spec's base seed derives from `--seed`.
fn base_seed(seed: u64, label: u64) -> u64 {
    derive_seed(seed, label) >> 1
}

/// Resolves a spec by exact id in the quick-scale registry (the registry
/// the orchestration workers resolve against too).
fn registry_spec(id: &str) -> Result<ScenarioSpec, String> {
    scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == id)
        .ok_or(format!("scenario {id} is not registered"))
}

/// Repetition `r` of a workload: `trials` trials from its own seed range.
fn rep_spec(template: &ScenarioSpec, base: u64, trials: u64, r: u64) -> ScenarioSpec {
    template.clone().trials(trials).base_seed(base + r * trials)
}

fn unanimous(spec: &ScenarioSpec) -> Option<Bit> {
    spec.inputs.materialize(spec.n).unanimous_value()
}

/// A trial of a repetition to replay under full tracing, spread over the
/// repetition's seed range.
fn sampled(records: &[TrialRecord], r: u64) -> TrialRecord {
    records[(r as usize * 7919) % records.len()]
}

/// Worker processes of the sharded workload and the orchestration probe.
/// Two workers moved the sharded workload's peak memory ~7% from run to run
/// with the coordinator's inbox backlog; one worker keeps it within ~1%.
const WORKERS: usize = 1;

/// This binary serves as its own orchestration worker, so a run never
/// executes a worker built from other sources.
fn worker_command() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    Ok(vec![
        exe.to_string_lossy().into_owned(),
        "--worker".to_string(),
    ])
}

/// CPU seconds of this process and its live workers.
fn cpu_split(pids: &[u64]) -> (f64, f64) {
    let workers = pids.iter().map(|&p| cpu_seconds(p)).sum();
    (own_cpu_seconds(), workers)
}

/// Traced runs spend half their time untraced, half traced, on the same
/// repetitions; the gap between the two rates is the tracing overhead.
fn report_overhead(untraced: &[Rep], traced: &[Rep], out: &mut Outcome) {
    let rate = |reps: &[Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.trials as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let (u, t) = (rate(untraced), rate(traced));
    out.set("trace.untraced_trials_per_s", u);
    out.set("trace.traced_trials_per_s", t);
    out.set("trace.overhead_pct", (u - t) / u * 100.0);
}

/// Session-level layer metrics: spawn, shutdown, CPU split, wire bytes and
/// worker memory.
struct SessionFigures {
    spawn_ms: f64,
    shutdown_ms: f64,
    coordinator_cpu_s: f64,
    worker_cpu_s: f64,
    wire_bytes: u64,
    trials: u64,
    worker_rss_mb: f64,
}

impl SessionFigures {
    fn report(&self, out: &mut Outcome) {
        let trials = self.trials as f64;
        out.set("orchestrate.spawn_ms", self.spawn_ms);
        out.set("orchestrate.shutdown_ms", self.shutdown_ms);
        out.set(
            "orchestrate.coordinator_cpu_ms_per_trial",
            self.coordinator_cpu_s * 1e3 / trials,
        );
        out.set(
            "orchestrate.worker_cpu_ms_per_trial",
            self.worker_cpu_s * 1e3 / trials,
        );
        out.set(
            "transport.wire_bytes_per_trial",
            self.wire_bytes as f64 / trials,
        );
        out.set("orchestrate.worker_peak_rss_mb", self.worker_rss_mb);
    }
}

fn worker_rss(pids: &[u64]) -> f64 {
    pids.iter().map(|&p| peak_rss_mb(Some(p))).sum()
}

/// One sharded run of `spec` through a fresh session: the orchestration
/// layer as a workload that does not otherwise shard would see it.
fn orchestrate_probe(spec: &ScenarioSpec, out: &mut Outcome) -> Result<(), String> {
    let t0 = Instant::now();
    let mut session = Orchestrator::new(Scale::Quick, worker_command()?)
        .workers(WORKERS)
        .start()
        .map_err(err)?;
    let spawn_ms = secs(t0) * 1e3;
    let pids = session.worker_pids();
    let (c0, w0) = cpu_split(&pids);
    let io0 = loopback_bytes();
    let mut clock = RangeClock::default();
    clock.begin();
    let records = session
        .run_spec_records_with(spec, |e| clock.on_event(e))
        .map_err(err)?;
    clock.end();
    let (c1, w1) = cpu_split(&pids);
    let wire_bytes = loopback_bytes() - io0;
    let worker_rss_mb = worker_rss(&pids);
    let t1 = Instant::now();
    session.shutdown().map_err(err)?;
    SessionFigures {
        spawn_ms,
        shutdown_ms: secs(t1) * 1e3,
        coordinator_cpu_s: c1 - c0,
        worker_cpu_s: w1 - w0,
        wire_bytes,
        trials: spec.trials,
        worker_rss_mb,
    }
    .report(out);
    clock.report(out);
    out.check(
        "orchestrate probe tiling",
        check_tiling(&records, spec.base_seed, spec.trials),
    );
    Ok(())
}

/// The search layer on a spec: a few fresh generations through the
/// layer's public calls, plus one whole search for corpus figures.
fn search_probe(
    spec: &ScenarioSpec,
    seed: u64,
    batch: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut spans = SearchSpans::default();
    for g in 0..4 {
        spans.generation(spec, derive_seed(seed, g), batch)?;
    }
    spans.report(out);
    let config = SearchConfig::default()
        .budget_trials(batch * 4)
        .batch(batch)
        .seed(seed);
    let outcome = run_search(spec, &Campaign::serial(), &config).map_err(err)?;
    report_corpus(
        &[outcome.corpus.len() as f64],
        &[best_decision_time(&outcome)],
        out,
    );
    Ok(())
}

fn campaign(args: &Args, shape: &CampaignShape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = base_seed(args.seed, shape.label);
    let trials = shape.trials_per_rep;
    let setup = || {
        let t0 = Instant::now();
        let spec = registry_spec(shape.spec)?.trials(1);
        let mut sink = JsonlSink::new();
        spec.run_with_sinks(&Campaign::serial(), &mut [&mut sink])
            .map_err(err)?;
        Ok(secs(t0))
    };
    let template = registry_spec(shape.spec)?;
    let inputs = unanimous(&template);
    let committee = match template.protocol {
        ProtocolSpec::SampledCommittee { size, .. } => Some(size as u64),
        _ => None,
    };
    let check = |spec: &ScenarioSpec, jsonl: &str| -> Result<Vec<TrialRecord>, String> {
        let records = check_jsonl(jsonl, &spec.id(), spec.base_seed, trials, inputs)?;
        if let Some(k) = committee {
            for record in &records {
                check_committee_bound(record, k, spec.n as u64)?;
            }
        }
        Ok(records)
    };
    let mut samples = Vec::new();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    out.measure(seconds, MIN_REPS, shape.setups, setup, |r| {
        let spec = rep_spec(&template, base, trials, r);
        let mut sink = JsonlSink::new();
        let cpu0 = own_cpu_seconds();
        let t0 = Instant::now();
        spec.run_with_sinks(&Campaign::serial(), &mut [&mut sink])
            .map_err(err)?;
        let wall_s = secs(t0);
        let cpu_s = own_cpu_seconds() - cpu0;
        let records = check(&spec, sink.as_str())?;
        if r < shape.audits {
            samples.push((spec, sampled(&records, r)));
        }
        Ok(Rep {
            trials,
            wall_s,
            cpu_s,
        })
    });
    out.peak_rss_mb = peak_rss_mb(None);

    if args.trace {
        let untraced = std::mem::take(&mut out.reps);
        let mut sim = SimSpans::default();
        let mut render = RenderSpans::default();
        let mut last = Vec::new();
        out.measure(
            seconds,
            MIN_REPS,
            0,
            || Ok(0.0),
            |r| {
                let spec = rep_spec(&template, base, trials, r);
                let t0 = Instant::now();
                let (_, jsonl) = sim.campaign(&spec, &mut render)?;
                let wall_s = secs(t0);
                last = check(&spec, &jsonl)?;
                Ok(Rep {
                    trials,
                    wall_s,
                    cpu_s: 0.0,
                })
            },
        );
        let traced = std::mem::replace(&mut out.reps, untraced.clone());
        report_overhead(&untraced, &traced, &mut out);
        sim.report(&mut out);
        render.report(&mut out);
        let spec = rep_spec(&template, base, trials, 0);
        let (fresh, warm) = shape.workspace_runs;
        workspace_probe(&spec, fresh, warm, &mut out)?;
        wire_probe(&last, &mut out)?;
        checkpoint_probe(
            &spec,
            &last,
            WORKERS,
            &work_dir().join("probe.ckpt"),
            &mut out,
        )?;
        orchestrate_probe(&rep_spec(&template, base, shape.probe_trials, 0), &mut out)?;
        search_probe(&spec, args.seed, shape.search_batch, &mut out)?;
    }

    for (spec, record) in samples {
        out.check(
            &format!("audit of seed {}", record.seed),
            audit_trial(&spec, &record),
        );
    }
    Ok(out)
}

fn sharded(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = base_seed(args.seed, 0x0957);
    let checkpoint: PathBuf = work_dir().join(format!("sharded-{}.ckpt", std::process::id()));
    let command = worker_command()?;
    let start = |checkpoint: &PathBuf| {
        let _ = std::fs::remove_file(checkpoint);
        Orchestrator::new(Scale::Quick, command.clone())
            .workers(WORKERS)
            .checkpoint(checkpoint)
            .start()
            .map_err(err)
    };
    // Set-up: spec resolution, worker spawn and hello, and the first trial,
    // each time in a fresh session beside the live one.
    let setup_checkpoint = work_dir().join(format!("setup-{}.ckpt", std::process::id()));
    let mut spawn_ms = Vec::new();
    let mut setup = || {
        let t0 = Instant::now();
        let spec = registry_spec(SHARDED_SPEC)?.trials(1);
        let mut fresh = start(&setup_checkpoint)?;
        spawn_ms.push(secs(t0) * 1e3);
        fresh.run_spec_records(&spec).map_err(err)?;
        let elapsed = secs(t0);
        fresh.shutdown().map_err(err)?;
        Ok(elapsed)
    };
    let mut session = start(&checkpoint)?;
    let pids = session.worker_pids();
    let template = registry_spec(SHARDED_SPEC)?;
    let inputs = unanimous(&template);
    let trials = SHARDED_TRIALS;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    let mut prints = Vec::new();
    let mut samples = Vec::new();
    let mut clock = RangeClock::default();
    let mut render = RenderSpans::default();
    let mut last = Vec::new();
    let mut traced_totals = (0.0, 0.0, 0u64);
    let mut rep = |r: u64, traced: bool, clock: &mut RangeClock, render: &mut RenderSpans| {
        let spec = rep_spec(&template, base, trials, r);
        // A fresh checkpoint per repetition: nothing may be restored.
        let _ = std::fs::remove_file(&checkpoint);
        let meta = spec.meta().map_err(err)?;
        clock.begin();
        let (c0, w0) = cpu_split(&pids);
        let t0 = Instant::now();
        let records = session
            .run_spec_records_with(&spec, |e| clock.on_event(e))
            .map_err(err)?;
        clock.end();
        let jsonl = if traced {
            render.render(&meta, &records)
        } else {
            let mut sink = JsonlSink::new();
            stream_records(&meta, &records, &mut [&mut sink]);
            sink.into_string()
        };
        let wall_s = secs(t0);
        let (c1, w1) = cpu_split(&pids);
        if let Some(event) = clock.recoveries.first() {
            return Err(format!("recovery during the repetition: {event:?}"));
        }
        let checked = check_jsonl(&jsonl, &spec.id(), spec.base_seed, trials, inputs)?;
        Ok((spec, checked, jsonl, wall_s, c1 - c0, w1 - w0))
    };
    out.measure(seconds, MIN_REPS, SHARDED_SETUPS, &mut setup, |r| {
        let (spec, records, jsonl, wall_s, coordinator, workers) =
            rep(r, false, &mut clock, &mut render)?;
        if r < SHARDED_CHECKED_REPS {
            prints.push((spec.clone(), fingerprint(&jsonl)));
            samples.push((spec, sampled(&records, r)));
        }
        Ok(Rep {
            trials,
            wall_s,
            cpu_s: coordinator + workers,
        })
    });
    let workers_rss = worker_rss(&pids);
    out.peak_rss_mb = peak_rss_mb(None) + workers_rss;

    if args.trace {
        let untraced = std::mem::take(&mut out.reps);
        let io0 = loopback_bytes();
        clock = RangeClock::default();
        out.measure(
            seconds,
            MIN_REPS,
            0,
            || Ok(0.0),
            |r| {
                let (_, records, _, wall_s, coordinator, workers) =
                    rep(r, true, &mut clock, &mut render)?;
                traced_totals.0 += coordinator;
                traced_totals.1 += workers;
                traced_totals.2 += trials;
                last = records;
                Ok(Rep {
                    trials,
                    wall_s,
                    cpu_s: 0.0,
                })
            },
        );
        let wire = loopback_bytes() - io0;
        let traced = std::mem::replace(&mut out.reps, untraced.clone());
        report_overhead(&untraced, &traced, &mut out);
        clock.report(&mut out);
        render.report(&mut out);
        let t0 = Instant::now();
        session.shutdown().map_err(err)?;
        SessionFigures {
            spawn_ms: median(&spawn_ms),
            shutdown_ms: secs(t0) * 1e3,
            coordinator_cpu_s: traced_totals.0,
            worker_cpu_s: traced_totals.1,
            wire_bytes: wire,
            trials: traced_totals.2,
            worker_rss_mb: workers_rss,
        }
        .report(&mut out);
        // The simulation runs inside the workers; its layers are timed on a
        // local run of the same spec.
        let spec = rep_spec(&template, base, trials, 0);
        let mut sim = SimSpans::default();
        sim.campaign(&spec, &mut RenderSpans::default())?;
        sim.report(&mut out);
        workspace_probe(&spec, 5, 400, &mut out)?;
        wire_probe(&last, &mut out)?;
        checkpoint_probe(
            &spec,
            &last,
            WORKERS,
            &work_dir().join("probe.ckpt"),
            &mut out,
        )?;
        search_probe(&spec, args.seed, SEARCH_BATCH, &mut out)?;
    } else {
        session.shutdown().map_err(err)?;
    }
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(&setup_checkpoint);

    // After timing: the merged documents must be byte-identical to an
    // in-process serial run of the same spec.
    for (spec, print) in prints {
        let mut sink = JsonlSink::new();
        spec.run_with_sinks(&Campaign::serial(), &mut [&mut sink])
            .map_err(err)?;
        let same = if fingerprint(sink.as_str()) == print {
            Ok(())
        } else {
            Err("merged JSONL differs from the serial run".to_string())
        };
        out.check(
            &format!("serial comparison of base seed {}", spec.base_seed),
            same,
        );
    }
    for (spec, record) in samples {
        out.check(
            &format!("audit of seed {}", record.seed),
            audit_trial(&spec, &record),
        );
    }
    Ok(out)
}

fn search(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = base_seed(args.seed, 0x5EA7);
    let setup = || {
        let t0 = Instant::now();
        let spec = registry_spec(SEARCH_SPEC)?;
        let first = SearchConfig::default().budget_trials(SEARCH_BATCH);
        run_search(&spec, &Campaign::serial(), &first).map_err(err)?;
        Ok(secs(t0))
    };
    let template = registry_spec(SEARCH_SPEC)?;
    let mut samples: Vec<(ScenarioSpec, CorpusEntry, u64)> = Vec::new();
    let mut corpus_sizes = Vec::new();
    let mut best_times = Vec::new();
    let mut one = |r: u64, keep: bool| -> Result<Rep, String> {
        // Each repetition is an independent search with its own master
        // seed, so a run averages over many corpus histories instead of
        // repeating one.
        let spec = rep_spec(&template, base, SEARCH_BUDGET, r);
        let config = SearchConfig::default()
            .budget_trials(SEARCH_BUDGET)
            .batch(SEARCH_BATCH)
            .seed(derive_seed(args.seed, r));
        let cpu0 = own_cpu_seconds();
        let t0 = Instant::now();
        let outcome = run_search(&spec, &Campaign::serial(), &config).map_err(err)?;
        let wall_s = secs(t0);
        let cpu_s = own_cpu_seconds() - cpu0;
        check_search_budget(
            outcome.trials_run,
            outcome.batches_run,
            SEARCH_BUDGET,
            SEARCH_BATCH,
        )?;
        for entry in outcome.corpus.iter() {
            check_record(&entry.record, None)?;
            if !(spec.base_seed..spec.base_seed + SEARCH_BUDGET).contains(&entry.record.seed) {
                return Err(format!(
                    "corpus seed {} outside the budget",
                    entry.record.seed
                ));
            }
        }
        corpus_sizes.push(outcome.corpus.len() as f64);
        best_times.push(best_decision_time(&outcome));
        if keep {
            if let Some(best) = outcome.best() {
                samples.push((spec, best.clone(), outcome.time_cap));
            }
        }
        Ok(Rep {
            trials: outcome.trials_run,
            wall_s,
            cpu_s,
        })
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    out.measure(seconds, MIN_REPS, SEARCH_SETUPS, setup, |r| one(r, r < 8));
    out.peak_rss_mb = peak_rss_mb(None);

    if args.trace {
        let untraced = std::mem::take(&mut out.reps);
        let mut spans = SearchSpans::default();
        out.measure(
            seconds,
            MIN_REPS,
            0,
            || Ok(0.0),
            |r| {
                let rep = one(r, false)?;
                spans.generation(
                    &rep_spec(&template, base, SEARCH_BUDGET, r),
                    derive_seed(args.seed, r),
                    SEARCH_BATCH,
                )?;
                Ok(rep)
            },
        );
        let traced = std::mem::replace(&mut out.reps, untraced.clone());
        report_overhead(&untraced, &traced, &mut out);
        spans.report(&mut out);
        report_corpus(&corpus_sizes, &best_times, &mut out);
        // The campaign layers on the same harness under its registry
        // adversary.
        let spec = rep_spec(&template, base, 1000, 0);
        let mut sim = SimSpans::default();
        let mut render = RenderSpans::default();
        let (records, _) = sim.campaign(&spec, &mut render)?;
        sim.report(&mut out);
        render.report(&mut out);
        workspace_probe(&spec, 5, 400, &mut out)?;
        wire_probe(&records, &mut out)?;
        checkpoint_probe(
            &spec,
            &records,
            WORKERS,
            &work_dir().join("probe.ckpt"),
            &mut out,
        )?;
        orchestrate_probe(&rep_spec(&template, base, 4000, 0), &mut out)?;
    }

    for (spec, entry, time_cap) in samples {
        let artifact = ScheduleArtifact {
            scenario: spec.id(),
            model: entry.genome.model().to_string(),
            predicate: Predicate::classify(&entry.record, time_cap),
            seed: entry.record.seed,
            genome: entry.genome.clone(),
            record: entry.record,
        };
        let replayed = replay(&spec, &artifact).and_then(|report| {
            if report.matches {
                Ok(())
            } else {
                Err("replayed record differs from the corpus record".to_string())
            }
        });
        out.check(&format!("replay of seed {}", entry.record.seed), replayed);
        let audited = spec
            .config()
            .map_err(err)
            .and_then(|cfg| build_from_genome(&entry.genome, &cfg).map_err(err))
            .and_then(|mut adversary| {
                spec.run_single_with(entry.record.seed, &mut adversary)
                    .map_err(err)
            })
            .and_then(|outcome| audit_outcome(&spec, &outcome, &entry.record));
        out.check(&format!("audit of seed {}", entry.record.seed), audited);
    }
    Ok(out)
}
