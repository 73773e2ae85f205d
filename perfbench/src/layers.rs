//! Per-layer timing for traced runs, taken from outside around calls into
//! the public functions of `agreement-core`, `agreement-sim`,
//! `agreement-net` and `agreement-search`. Nothing here changes what the
//! program does; a span is two `Instant::now()` calls around one call.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use agreement_adversary::{build_from_genome, AdversaryBuildCtx, Genome, DEFAULT_TAPE_LEN};
use agreement_core::block::{decode_block, encode_block};
use agreement_core::orchestrate::{
    CheckpointEntry, CheckpointWriter, OrchestrationEvent, DEFAULT_BATCH_RECORDS,
};
use agreement_core::{
    Campaign, JsonlSink, ReportSink, ScenarioMeta, ScenarioReport, ScenarioSpec, TrialRecord,
};
use agreement_model::derive_seed;
use agreement_net::transport::{Connection, Listener};
use agreement_search::{decision_time, fitness, novelty_signature, Corpus, CorpusEntry};
use agreement_sim::{RunLimits, TrialWorkspace};

use crate::{mean, median, Outcome};

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn scenario_err(e: agreement_core::ScenarioError) -> String {
    e.to_string()
}

/// Rendering spans: `JsonlSink` per record and `ScenarioReport::from_records`
/// per campaign.
#[derive(Debug, Default)]
pub struct RenderSpans {
    jsonl_s: f64,
    report_s: f64,
    reports: u64,
    trials: u64,
    bytes: u64,
}

impl RenderSpans {
    /// Renders `records` as the `scenarios` binary does (JSONL plus the
    /// finished report), timing the two calls apart. Returns the JSONL.
    pub fn render(&mut self, meta: &ScenarioMeta, records: &[TrialRecord]) -> String {
        let mut sink = JsonlSink::new();
        let t0 = Instant::now();
        for record in records {
            sink.record_trial(meta, record);
        }
        let t1 = Instant::now();
        let report = ScenarioReport::from_records(meta.clone(), records);
        sink.end_scenario(meta, &report);
        self.jsonl_s += (t1 - t0).as_secs_f64();
        self.report_s += secs(t1);
        self.reports += 1;
        self.trials += records.len() as u64;
        let jsonl = sink.into_string();
        self.bytes += jsonl.len() as u64;
        jsonl
    }

    pub fn report(&self, out: &mut Outcome) {
        let trials = self.trials as f64;
        out.set("render.jsonl_ns_per_trial", self.jsonl_s * 1e9 / trials);
        out.set(
            "render.report_ms",
            self.report_s * 1e3 / self.reports as f64,
        );
        out.set("render.jsonl_bytes_per_trial", self.bytes as f64 / trials);
    }
}

/// Simulation and distillation spans of campaigns run trial by trial
/// through the public pieces a campaign is made of:
/// `TrialWorkspace::run_built` (sim, adversary construction included) and
/// `TrialRecord::from_outcome` (distill).
#[derive(Debug, Default)]
pub struct SimSpans {
    sim_s: f64,
    distill_s: f64,
    trials: u64,
    deliveries: u64,
    messages: u64,
    time_units: u64,
}

impl SimSpans {
    /// Runs every trial of `spec` (seeds `base_seed + t`) in one fresh
    /// workspace, as `Campaign::serial()` does, then renders the records.
    pub fn campaign(
        &mut self,
        spec: &ScenarioSpec,
        render: &mut RenderSpans,
    ) -> Result<(Vec<TrialRecord>, String), String> {
        let cfg = spec.config().map_err(scenario_err)?;
        let instance = spec.protocol.instantiate(&cfg).map_err(scenario_err)?;
        let factory = spec.factory().map_err(scenario_err)?;
        let meta = spec.meta().map_err(scenario_err)?;
        let inputs = spec.inputs.materialize(spec.n);
        let targets = spec.targets.clone().unwrap_or(instance.committee.clone());
        let mut workspace = TrialWorkspace::new();
        workspace.set_buffer_choice(spec.buffer);
        let mut records = Vec::with_capacity(spec.trials as usize);
        for trial in 0..spec.trials {
            let seed = spec.base_seed + trial;
            let t0 = Instant::now();
            let mut adversary =
                factory.build(&AdversaryBuildCtx::new(cfg, seed).with_targets(targets.clone()));
            let outcome = workspace.run_built(
                cfg,
                &inputs,
                instance.builder.as_ref(),
                &mut adversary,
                seed,
                spec.limits,
            );
            let t1 = Instant::now();
            let record = TrialRecord::from_outcome(trial, seed, &outcome, &inputs);
            self.sim_s += (t1 - t0).as_secs_f64();
            self.distill_s += secs(t1);
            self.trials += 1;
            self.deliveries += record.metrics.messages_delivered;
            self.messages += record.metrics.messages_sent;
            self.time_units += record.duration;
            records.push(record);
        }
        let jsonl = render.render(&meta, &records);
        Ok((records, jsonl))
    }

    pub fn report(&self, out: &mut Outcome) {
        let trials = self.trials as f64;
        out.set("sim.us_per_trial", self.sim_s * 1e6 / trials);
        out.set(
            "sim.ns_per_delivery",
            self.sim_s * 1e9 / (self.deliveries as f64).max(1.0),
        );
        out.set("sim.deliveries_per_trial", self.deliveries as f64 / trials);
        out.set("sim.messages_per_trial", self.messages as f64 / trials);
        out.set("sim.time_units_per_trial", self.time_units as f64 / trials);
        out.set("record.distill_ns_per_trial", self.distill_s * 1e9 / trials);
    }
}

/// `workspace.reinit_us`: `run_built` on a warm workspace under zero
/// `RunLimits` (re-initialisation plus outcome assembly, no steps);
/// `workspace.first_trial_ms`: trial 0 in a fresh workspace.
pub fn workspace_probe(
    spec: &ScenarioSpec,
    fresh: usize,
    warm: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = spec.config().map_err(scenario_err)?;
    let instance = spec.protocol.instantiate(&cfg).map_err(scenario_err)?;
    let factory = spec.factory().map_err(scenario_err)?;
    let inputs = spec.inputs.materialize(spec.n);
    let targets = spec.targets.clone().unwrap_or(instance.committee.clone());
    let seed = spec.base_seed;
    let build = || factory.build(&AdversaryBuildCtx::new(cfg, seed).with_targets(targets.clone()));
    let mut first = Vec::new();
    let mut workspace = TrialWorkspace::new();
    for _ in 0..fresh {
        workspace = TrialWorkspace::new();
        workspace.set_buffer_choice(spec.buffer);
        let mut adversary = build();
        let t0 = Instant::now();
        workspace.run_built(
            cfg,
            &inputs,
            instance.builder.as_ref(),
            &mut adversary,
            seed,
            spec.limits,
        );
        first.push(secs(t0) * 1e3);
    }
    let zero = RunLimits {
        max_windows: 0,
        max_steps: 0,
    };
    let mut reinit = Vec::new();
    for _ in 0..warm {
        let mut adversary = build();
        let t0 = Instant::now();
        workspace.run_built(
            cfg,
            &inputs,
            instance.builder.as_ref(),
            &mut adversary,
            seed,
            zero,
        );
        reinit.push(secs(t0) * 1e6);
    }
    out.set("workspace.first_trial_ms", median(&first));
    out.set("workspace.reinit_us", median(&reinit));
    Ok(())
}

/// Block codec and loopback transport on the workload's own records:
/// `encode_block` / `decode_block` per default-size block, and one such
/// block through a `Connection` pair (frame, CRC, syscalls, reader thread).
pub fn wire_probe(records: &[TrialRecord], out: &mut Outcome) -> Result<(), String> {
    let batch = (DEFAULT_BATCH_RECORDS as usize).min(records.len()).max(1);
    let (mut encode_s, mut decode_s, mut bytes, mut count) = (0.0, 0.0, 0usize, 0usize);
    while count < 50_000 {
        for block in records.chunks(batch) {
            let t0 = Instant::now();
            let frame = encode_block(7, block, false);
            let t1 = Instant::now();
            let (_, decoded) = decode_block(&frame)?;
            decode_s += secs(t1);
            encode_s += (t1 - t0).as_secs_f64();
            if decoded.as_slice() != block {
                return Err("a block did not decode to its records".to_string());
            }
            bytes += frame.len();
            count += block.len();
        }
    }
    out.set("block.encode_ns_per_record", encode_s * 1e9 / count as f64);
    out.set("block.decode_ns_per_record", decode_s * 1e9 / count as f64);
    out.set("block.bytes_per_record", bytes as f64 / count as f64);

    let frame = encode_block(7, &records[..batch], false);
    let io = |e: std::io::Error| e.to_string();
    let listener = Listener::bind_local().map_err(io)?;
    let addr = listener.local_addr().map_err(io)?.to_string();
    let mut client = Connection::connect(&addr).map_err(io)?;
    let mut server = listener
        .accept_deadline(Instant::now() + Duration::from_secs(10))
        .map_err(io)?;
    let mut times = Vec::new();
    for _ in 0..400 {
        let copy = frame.clone();
        let t0 = Instant::now();
        client.send(copy).map_err(|_| "loopback send failed")?;
        let got = server.recv().ok_or("loopback receive failed")?;
        times.push(secs(t0) * 1e6);
        if got.len() != frame.len() {
            return Err("loopback frame changed length".to_string());
        }
    }
    client.finish();
    server.finish();
    out.set("transport.block_frame_us", median(&times));
    Ok(())
}

/// `CheckpointWriter::append` of the ranges a session with `workers`
/// workers checkpoints for `records` (its default chunking cuts
/// `workers · 4` ranges), into a file of the work directory.
pub fn checkpoint_probe(
    spec: &ScenarioSpec,
    records: &[TrialRecord],
    workers: usize,
    path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let trials = records.len() as u64;
    let chunk = trials.div_ceil(workers as u64 * 4).max(1) as usize;
    let entries: Vec<CheckpointEntry> = records
        .chunks(chunk)
        .map(|range| CheckpointEntry {
            scenario: spec.id(),
            base_seed: spec.base_seed,
            trials,
            lo: range[0].trial,
            hi: range[range.len() - 1].trial + 1,
            records: range.to_vec(),
        })
        .collect();
    let _ = std::fs::remove_file(path);
    let mut writer = CheckpointWriter::open(path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    while times.len() < 64 {
        for entry in &entries {
            let t0 = Instant::now();
            writer.append(entry).map_err(|e| e.to_string())?;
            times.push(secs(t0) * 1e6);
        }
    }
    drop(writer);
    let _ = std::fs::remove_file(path);
    out.set("checkpoint.append_us", median(&times));
    Ok(())
}

/// Timestamps of a session's `OrchestrationEvent`s: range service times,
/// per-worker dispatch gaps, the merge tail, and any recovery.
#[derive(Debug, Default)]
pub struct RangeClock {
    assigned: HashMap<(usize, u64, u64), Instant>,
    idle_since: HashMap<usize, Instant>,
    last_completed: Option<Instant>,
    range_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    ranges: u64,
    runs: u64,
    /// Restores, losses, speculations and respawns.
    pub recoveries: Vec<OrchestrationEvent>,
}

impl RangeClock {
    /// Marks the start of one spec run.
    pub fn begin(&mut self) {
        self.assigned.clear();
        self.idle_since.clear();
        self.last_completed = None;
    }

    pub fn on_event(&mut self, event: OrchestrationEvent) {
        let now = Instant::now();
        match event {
            OrchestrationEvent::RangeAssigned { worker, lo, hi } => {
                if let Some(idle) = self.idle_since.remove(&worker) {
                    self.gap_ms.push((now - idle).as_secs_f64() * 1e3);
                }
                self.assigned.insert((worker, lo, hi), now);
            }
            OrchestrationEvent::RangeCompleted { worker, lo, hi } => {
                if let Some(start) = self.assigned.remove(&(worker, lo, hi)) {
                    self.range_ms.push((now - start).as_secs_f64() * 1e3);
                }
                self.idle_since.insert(worker, now);
                self.last_completed = Some(now);
                self.ranges += 1;
            }
            other => self.recoveries.push(other),
        }
    }

    /// Marks the end of one spec run (the merged records are in hand).
    pub fn end(&mut self) {
        if let Some(last) = self.last_completed {
            self.tail_ms.push(secs(last) * 1e3);
        }
        self.runs += 1;
    }

    pub fn report(&self, out: &mut Outcome) {
        let (_, p50, _) = crate::quartiles(&self.range_ms);
        let mut sorted = self.range_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let p90 = sorted
            .get(((sorted.len() as f64 * 0.9).ceil() as usize).saturating_sub(1))
            .copied()
            .unwrap_or(f64::NAN);
        out.set("orchestrate.range_ms_p50", p50);
        out.set("orchestrate.range_ms_p90", p90);
        out.set("orchestrate.dispatch_gap_ms", mean(&self.gap_ms));
        out.set("orchestrate.merge_tail_ms", mean(&self.tail_ms));
        out.set("orchestrate.ranges", self.ranges as f64 / self.runs as f64);
        out.set("orchestrate.redispatched", self.recoveries.len() as f64);
    }
}

/// The search layer on `spec`'s harness: one generation of `batch` fresh
/// genomes through `build_from_genome` (for windowed specs, boxed
/// `SearchWindowAdversary::from_genome`), `run_batch_records_with`, and
/// the corpus fold (`novelty_signature` + `fitness` + `Corpus::consider`).
#[derive(Debug, Default)]
pub struct SearchSpans {
    build_s: f64,
    builds: u64,
    eval_s: f64,
    fold_s: f64,
    trials: u64,
}

impl SearchSpans {
    pub fn generation(&mut self, spec: &ScenarioSpec, seed: u64, batch: u64) -> Result<(), String> {
        let model = spec.model().map_err(scenario_err)?.id();
        let cfg = spec.config().map_err(scenario_err)?;
        let time_cap = spec.meta().map_err(scenario_err)?.time_cap;
        let genomes: Vec<Genome> = (0..batch)
            .map(|i| Genome::from_seed(model, derive_seed(seed, i), DEFAULT_TAPE_LEN))
            .collect();
        let t0 = Instant::now();
        for genome in &genomes {
            std::hint::black_box(build_from_genome(genome, &cfg).map_err(|e| e.to_string())?);
        }
        self.build_s += secs(t0);
        self.builds += batch;
        let base = spec.base_seed;
        let t1 = Instant::now();
        let records = spec
            .run_batch_records_with(&Campaign::serial(), batch, base, |seed| {
                build_from_genome(&genomes[(seed - base) as usize], &cfg)
                    .expect("genomes carry the spec's model tag")
            })
            .map_err(scenario_err)?;
        let t2 = Instant::now();
        let mut corpus = Corpus::new(256);
        for (genome, record) in genomes.into_iter().zip(&records) {
            corpus.consider(CorpusEntry {
                signature: novelty_signature(record),
                fitness: fitness(record, time_cap),
                genome,
                record: *record,
            });
        }
        self.fold_s += secs(t2);
        self.eval_s += (t2 - t1).as_secs_f64();
        self.trials += batch;
        Ok(())
    }

    pub fn report(&self, out: &mut Outcome) {
        out.set(
            "search.adversary_build_ns",
            self.build_s * 1e9 / self.builds as f64,
        );
        out.set(
            "search.eval_us_per_trial",
            self.eval_s * 1e6 / self.trials as f64,
        );
        out.set(
            "search.fold_ns_per_trial",
            self.fold_s * 1e9 / self.trials as f64,
        );
    }
}

/// Corpus size and best decision time of finished searches.
pub fn report_corpus(corpus_sizes: &[f64], best_times: &[f64], out: &mut Outcome) {
    out.set("search.corpus_size", mean(corpus_sizes));
    out.set("search.best_decision_time", mean(best_times));
}

/// Decision time of a search's best entry.
pub fn best_decision_time(outcome: &agreement_search::SearchOutcome) -> f64 {
    outcome.best().map_or(0.0, |best| {
        decision_time(&best.record, outcome.time_cap) as f64
    })
}
