//! Output checks kept apart from the program under test.
//!
//! Nothing here calls the program's own validators (`Window::validate`,
//! `RunOutcome::agreement_holds`, …). The [`Audit`] re-derives the paper's
//! model rules from a replayed trial's raw event stream, and the closed-form
//! checks re-derive what a campaign's output must look like from the spec
//! alone (seeds, trial tiling, decided values, message bounds).

use std::cell::RefCell;
use std::rc::Rc;

use agreement_adversary::AdversaryBuildCtx;
use agreement_analysis::{fnv1a_64, JsonValue};
use agreement_core::{ScenarioSpec, TrialRecord};
use agreement_model::{Bit, InputAssignment, Recorder, Trace, TraceEvent};
use agreement_sim::{AsyncModel, Engine, NoProbe, RunOutcome};

/// One acceptable window as seen in the trace: who sent to whom in its
/// sending phase, who was delivered to whom, and how many resets it held.
/// Rows are bitsets over senders, indexed by recipient.
#[derive(Debug, Clone)]
struct WindowTally {
    index: u64,
    sent: Vec<u64>,
    delivered: Vec<u64>,
    resets: usize,
}

/// Streaming re-derivation of one trial's model rules from its events.
///
/// Windowed runs are checked against Definition 1 of the paper: in every
/// window each processor hears from at least `n − t` senders — the adversary
/// may withhold the messages of at most `t` senders from any recipient — and
/// at most `t` resets occur. Every run is checked for agreement and validity
/// from its `Decided` events, and its Sent / Delivered / window counts are
/// kept for comparison with the campaign's NoTrace record.
#[derive(Debug, Clone)]
pub struct Audit {
    n: usize,
    t: usize,
    windowed: bool,
    /// Sends of the sending phase that precedes the next `WindowStarted`.
    pending_sent: Vec<u64>,
    open: Option<WindowTally>,
    windows: u64,
    sent: u64,
    delivered: u64,
    decisions: Vec<Bit>,
    errors: Vec<String>,
}

impl Audit {
    /// An audit of an `n`-processor, fault-budget-`t` run; `windowed`
    /// selects the Definition 1 checks.
    pub fn new(n: usize, t: usize, windowed: bool) -> Self {
        Audit {
            n,
            t,
            windowed,
            pending_sent: vec![0; n],
            open: None,
            windows: 0,
            sent: 0,
            delivered: 0,
            decisions: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, message: String) {
        // One trial needs only its first few faults to be diagnosable.
        if self.errors.len() < 4 {
            self.errors.push(message);
        }
    }

    fn close_window(&mut self) {
        let Some(window) = self.open.take() else {
            return;
        };
        if window.resets > self.t {
            self.fail(format!(
                "window {}: {} resets exceed t = {}",
                window.index, window.resets, self.t
            ));
        }
        for (to, (&sent, &delivered)) in window.sent.iter().zip(&window.delivered).enumerate() {
            if delivered & !sent != 0 {
                self.fail(format!(
                    "window {}: processor {to} received from a sender that sent it nothing this window",
                    window.index
                ));
            }
            let withheld = (sent & !delivered).count_ones() as usize;
            if withheld > self.t {
                self.fail(format!(
                    "window {}: processor {to} hears from {} senders, fewer than n - t = {}",
                    window.index,
                    self.n - withheld,
                    self.n - self.t
                ));
            }
        }
    }

    /// Consumes one event, in execution order.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::WindowStarted { index } => {
                self.close_window();
                if *index != self.windows {
                    self.fail(format!(
                        "window {index} started where {} was due",
                        self.windows
                    ));
                }
                self.windows += 1;
                self.open = Some(WindowTally {
                    index: *index,
                    sent: std::mem::replace(&mut self.pending_sent, vec![0; self.n]),
                    delivered: vec![0; self.n],
                    resets: 0,
                });
            }
            TraceEvent::Sent { from, to } => {
                self.sent += 1;
                if self.windowed {
                    self.pending_sent[to.index()] |= 1 << from.index();
                }
            }
            TraceEvent::Delivered { from, to } => {
                self.delivered += 1;
                if self.windowed {
                    match &mut self.open {
                        Some(window) => window.delivered[to.index()] |= 1 << from.index(),
                        None => self.fail("a delivery before the first window".to_string()),
                    }
                }
            }
            TraceEvent::Reset { .. } if self.windowed => match &mut self.open {
                Some(window) => window.resets += 1,
                None => self.fail("a reset before the first window".to_string()),
            },
            TraceEvent::Decided { value, .. } => self.decisions.push(*value),
            TraceEvent::Violation { description } => {
                self.fail(format!("the engine recorded a violation: {description}"))
            }
            _ => {}
        }
    }

    /// Closes the run and compares what the events show with the trial's
    /// campaign record (same spec, same seed, NoTrace path).
    ///
    /// # Errors
    ///
    /// Returns every rule the events break, or the first count that
    /// disagrees with the record.
    pub fn finish(mut self, inputs: &InputAssignment, record: &TrialRecord) -> Result<(), String> {
        self.close_window();
        if let Some(&first) = self.decisions.first() {
            if self.decisions.iter().any(|&v| v != first) {
                self.fail("agreement broken: processors decided both 0 and 1".to_string());
            }
            if record.decided != Some(first) {
                self.fail(format!(
                    "the trace decides {first:?}, the record says {:?}",
                    record.decided
                ));
            }
        }
        if let Some(bad) = self
            .decisions
            .iter()
            .find(|&&v| inputs.iter().all(|input| input != v))
        {
            self.fail(format!("validity broken: {bad:?} is nobody's input"));
        }
        let counts = [
            ("Sent", self.sent, record.metrics.messages_sent),
            (
                "Delivered",
                self.delivered,
                record.metrics.messages_delivered,
            ),
        ];
        for (what, traced, recorded) in counts {
            if traced != recorded {
                self.fail(format!("{what}: trace {traced}, record {recorded}"));
            }
        }
        if self.windowed && self.windows != record.metrics.windows {
            self.fail(format!(
                "windows: trace {}, record {}",
                self.windows, record.metrics.windows
            ));
        }
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(self.errors.join("; "))
        }
    }
}

/// A recorder that streams every event into a shared [`Audit`] instead of a
/// capped [`Trace`]: the n = 10000 runs emit far more events than a
/// `FullTrace` stores, and a truncated trace could hide a late decision.
#[derive(Default)]
struct AuditTap(Option<Rc<RefCell<Audit>>>);

impl Recorder for AuditTap {
    const IS_RECORDING: bool = true;

    fn record(&mut self, event: TraceEvent) {
        if let Some(audit) = &self.0 {
            audit.borrow_mut().observe(&event);
        }
    }

    fn record_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        self.record(make());
    }

    fn take_trace(&mut self) -> Trace {
        Trace::default()
    }

    fn reset(&mut self) {}
}

/// Feeds a stored trace to an audit; a trace that hit its storage cap
/// cannot be audited and is an error, never a silent pass.
///
/// # Errors
///
/// Returns a message when events were dropped.
pub fn audit_trace(audit: &mut Audit, trace: &Trace) -> Result<(), String> {
    if trace.dropped() > 0 {
        return Err(format!("trace dropped {} events", trace.dropped()));
    }
    for event in trace.stored() {
        audit.observe(event);
    }
    Ok(())
}

/// Audits a `FullTrace` outcome of `spec` against the trial's record.
///
/// # Errors
///
/// Returns the audit's findings.
pub fn audit_outcome(
    spec: &ScenarioSpec,
    outcome: &RunOutcome,
    record: &TrialRecord,
) -> Result<(), String> {
    let windowed = spec.model().map_err(|e| e.to_string())?.id() == "windowed";
    let mut audit = Audit::new(spec.n, spec.t, windowed);
    audit_trace(&mut audit, &outcome.trace)?;
    audit.finish(&spec.inputs.materialize(spec.n), record)
}

/// Replays trial `record` of `spec` with every event recorded and audits it:
/// a `FullTrace` run through [`ScenarioSpec::run_single`] for small systems,
/// a streaming tap on an asynchronous engine for large ones.
///
/// # Errors
///
/// Returns the audit's findings, or a message when the spec does not
/// resolve.
pub fn audit_trial(spec: &ScenarioSpec, record: &TrialRecord) -> Result<(), String> {
    if spec.n <= 64 {
        let outcome = spec.run_single(record.seed).map_err(|e| e.to_string())?;
        return audit_outcome(spec, &outcome, record);
    }
    let model = spec.model().map_err(|e| e.to_string())?.id();
    if model != "async" {
        return Err(format!(
            "no streaming replay for model {model} at n = {}",
            spec.n
        ));
    }
    let inputs = spec.inputs.materialize(spec.n);
    let audit = Audit::new(spec.n, spec.t, false);
    let cfg = spec.config().map_err(|e| e.to_string())?;
    let instance = spec.protocol.instantiate(&cfg).map_err(|e| e.to_string())?;
    let targets = spec.targets.clone().unwrap_or(instance.committee.clone());
    let ctx = AdversaryBuildCtx::new(cfg, record.seed).with_targets(targets);
    let mut adversary = spec
        .factory()
        .map_err(|e| e.to_string())?
        .build(&ctx)
        .into_async()
        .ok_or("adversary is not asynchronous")?;
    let shared = Rc::new(RefCell::new(audit));
    let mut engine = Engine::<AsyncModel, NoProbe, AuditTap>::with_parts(
        cfg,
        inputs.clone(),
        instance.builder.as_ref(),
        record.seed,
        NoProbe,
        AuditTap(Some(Rc::clone(&shared))),
    );
    engine.run(adversary.as_mut(), spec.limits);
    drop(engine);
    let audit = Rc::try_unwrap(shared)
        .map_err(|_| "audit still shared after the run")?
        .into_inner();
    audit.finish(&inputs, record)
}

/// Checks that `records` tile `0..trials` in order with trial `t` carrying
/// seed `base_seed + t`: nothing missing, repeated or reseeded.
///
/// # Errors
///
/// Names the first offending position.
pub fn check_tiling(records: &[TrialRecord], base_seed: u64, trials: u64) -> Result<(), String> {
    for (slot, record) in records.iter().enumerate() {
        let slot = slot as u64;
        if record.trial != slot || record.seed != base_seed + slot {
            return Err(format!(
                "slot {slot} holds trial {} seed {}, expected trial {slot} seed {}",
                record.trial,
                record.seed,
                base_seed + slot
            ));
        }
    }
    if records.len() as u64 != trials {
        return Err(format!("{} records for {trials} trials", records.len()));
    }
    Ok(())
}

/// Checks one record against what every trial of the method must show:
/// agreement, validity and no recorded violation, and — with unanimous
/// inputs — a decided value equal to that input.
///
/// # Errors
///
/// Names the broken property.
pub fn check_record(record: &TrialRecord, unanimous: Option<Bit>) -> Result<(), String> {
    if !record.agreement || !record.validity || record.violations != 0 {
        return Err(format!(
            "trial {} breaks agreement or validity",
            record.trial
        ));
    }
    if let (Some(input), Some(decided)) = (unanimous, record.decided) {
        if input != decided {
            return Err(format!(
                "trial {} decided {decided:?} on unanimous {input:?} inputs",
                record.trial
            ));
        }
    }
    Ok(())
}

/// Parses a rendered JSONL campaign document back into records, checking
/// each line names `scenario`, then checks tiling and every record.
///
/// # Errors
///
/// Names the first malformed line or broken property.
pub fn check_jsonl(
    jsonl: &str,
    scenario: &str,
    base_seed: u64,
    trials: u64,
    unanimous: Option<Bit>,
) -> Result<Vec<TrialRecord>, String> {
    let mut records = Vec::with_capacity(trials as usize);
    for (number, line) in jsonl.lines().enumerate() {
        let value = JsonValue::parse(line).map_err(|e| format!("line {number}: {e}"))?;
        if value.get("scenario").and_then(JsonValue::as_str) != Some(scenario) {
            return Err(format!("line {number} does not name scenario {scenario}"));
        }
        let record = TrialRecord::from_json(&value).map_err(|e| format!("line {number}: {e}"))?;
        check_record(&record, unanimous)?;
        records.push(record);
    }
    check_tiling(&records, base_seed, trials)?;
    Ok(records)
}

/// The sub-quadratic message bound of a sampled committee of size `k`:
/// each round costs at most `k²` committee messages plus `k · n`
/// announcements.
///
/// # Errors
///
/// Names the trial that sent more.
pub fn check_committee_bound(record: &TrialRecord, k: u64, n: u64) -> Result<(), String> {
    let bound = record.metrics.rounds * (k * k + k * n);
    if record.metrics.messages_sent > bound {
        return Err(format!(
            "trial {} sent {} messages over {} rounds, above rounds·(k² + k·n) = {bound}",
            record.trial, record.metrics.messages_sent, record.metrics.rounds
        ));
    }
    Ok(())
}

/// The fingerprint two documents must share to count as byte-identical:
/// length and FNV-1a 64 hash.
pub fn fingerprint(document: &str) -> (usize, u64) {
    (document.len(), fnv1a_64(document.as_bytes()))
}

/// Checks that a search ran exactly its trial budget in whole batches.
///
/// # Errors
///
/// Names the mismatch.
pub fn check_search_budget(
    trials_run: u64,
    batches_run: u64,
    budget: u64,
    batch: u64,
) -> Result<(), String> {
    if trials_run != budget || batches_run != budget.div_ceil(batch) {
        return Err(format!(
            "search ran {trials_run} trials in {batches_run} batches for a budget of {budget}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each damaged input must fail its check: no check may pass vacuously.

    use super::*;
    use agreement_core::experiments::Scale;
    use agreement_core::{scenario_registry, Campaign, JsonlSink};
    use agreement_model::ProcessorId;

    fn spec(id: &str, trials: u64) -> ScenarioSpec {
        let mut spec = scenario_registry(Scale::Quick)
            .into_iter()
            .find(|s| s.id() == id)
            .expect("registered");
        spec.trials = trials;
        spec.base_seed = 77;
        spec
    }

    const E1: &str = "e1/reset-tolerant/split-vote/split/n13t2";

    /// A real trial of the E1 workload: its spec, record and stored trace.
    fn e1_trial() -> (ScenarioSpec, TrialRecord, Vec<TraceEvent>) {
        let spec = spec(E1, 1);
        let record = spec
            .run_range_records(&Campaign::serial(), 0, 1)
            .expect("runs")[0];
        let outcome = spec.run_single(record.seed).expect("replays");
        assert_eq!(outcome.trace.dropped(), 0);
        (spec, record, outcome.trace.stored().to_vec())
    }

    fn audit(
        spec: &ScenarioSpec,
        record: &TrialRecord,
        events: &[TraceEvent],
    ) -> Result<(), String> {
        let mut audit = Audit::new(spec.n, spec.t, true);
        for event in events {
            audit.observe(event);
        }
        audit.finish(&spec.inputs.materialize(spec.n), record)
    }

    /// Positions of the events of window `index`, from its start up to the
    /// next sending phase.
    fn window_span(events: &[TraceEvent], index: u64) -> std::ops::Range<usize> {
        let start = events
            .iter()
            .position(|e| *e == TraceEvent::WindowStarted { index })
            .expect("window exists");
        let end = events[start + 1..]
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Sent { .. } | TraceEvent::WindowStarted { .. }
                )
            })
            .map_or(events.len(), |p| start + 1 + p);
        start..end
    }

    #[test]
    fn undamaged_outputs_pass() {
        let (spec, record, events) = e1_trial();
        audit(&spec, &record, &events).expect("a real trial passes the audit");
        audit_trial(&spec, &record).expect("the replay path passes");
        let spec = spec_with_trials(E1, 6);
        let mut sink = JsonlSink::new();
        spec.run_with_sinks(&Campaign::serial(), &mut [&mut sink])
            .expect("runs");
        check_jsonl(sink.as_str(), &spec.id(), spec.base_seed, 6, None).expect("JSONL passes");
        let psync = spec_with_trials("psync/ben-or/benign-eventual/unanimous-1/n7t1", 3);
        let records = psync
            .run_range_records(&Campaign::serial(), 0, 3)
            .expect("runs");
        for record in &records {
            check_record(record, Some(Bit::One)).expect("unanimous decides its input");
            audit_trial(&psync, record).expect("psync replay passes");
        }
        check_search_budget(256, 4, 256, 64).expect("whole budget");
    }

    fn spec_with_trials(id: &str, trials: u64) -> ScenarioSpec {
        spec(id, trials)
    }

    #[test]
    fn a_flipped_decided_bit_fails() {
        let (spec, record, mut events) = e1_trial();
        let at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Decided { .. }))
            .expect("someone decides");
        if let TraceEvent::Decided { value, .. } = &mut events[at] {
            *value = value.flipped();
        }
        assert!(audit(&spec, &record, &events).is_err());
        let mut flipped = record;
        flipped.decided = flipped.decided.map(Bit::flipped);
        assert!(check_record(&flipped, record.decided).is_err());
    }

    #[test]
    fn a_window_with_t_plus_one_resets_fails() {
        let (spec, record, mut events) = e1_trial();
        let span = window_span(&events, 0);
        let extra = (0..=spec.t).map(|i| TraceEvent::Reset {
            id: ProcessorId::new(i),
        });
        events.splice(span.end..span.end, extra);
        let err = audit(&spec, &record, &events).expect_err("t + 1 resets");
        assert!(err.contains("resets exceed"), "{err}");
    }

    #[test]
    fn a_window_with_fewer_than_n_minus_t_senders_fails() {
        let (spec, mut record, mut events) = e1_trial();
        let span = window_span(&events, 0);
        let to = ProcessorId::new(0);
        // Withhold every message processor 0 was sent in window 0.
        let withheld: Vec<usize> = events[span.clone()]
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                TraceEvent::Delivered { to: r, .. } if *r == to => Some(span.start + i),
                _ => None,
            })
            .collect();
        assert!(withheld.len() > spec.t, "window 0 delivers to processor 0");
        for &i in withheld.iter().rev() {
            events.remove(i);
        }
        // Keep the counts consistent so only Definition 1 can fail.
        record.metrics.messages_delivered -= withheld.len() as u64;
        let err = audit(&spec, &record, &events).expect_err("too few senders");
        assert!(err.contains("fewer than n - t"), "{err}");
    }

    #[test]
    fn a_missing_or_duplicated_trial_fails() {
        let spec = spec_with_trials(E1, 5);
        let records = spec
            .run_range_records(&Campaign::serial(), 0, 5)
            .expect("runs");
        check_tiling(&records, spec.base_seed, 5).expect("intact");
        let mut missing = records.clone();
        missing.remove(2);
        assert!(check_tiling(&missing, spec.base_seed, 5).is_err());
        let mut tail_missing = records.clone();
        tail_missing.pop();
        assert!(check_tiling(&tail_missing, spec.base_seed, 5).is_err());
        let mut duplicated = records.clone();
        duplicated[3] = duplicated[2];
        assert!(check_tiling(&duplicated, spec.base_seed, 5).is_err());
    }

    #[test]
    fn one_changed_byte_in_merged_jsonl_fails() {
        let spec = spec_with_trials(E1, 4);
        let mut sink = JsonlSink::new();
        spec.run_with_sinks(&Campaign::serial(), &mut [&mut sink])
            .expect("runs");
        let original = sink.into_string();
        let mut damaged = original.clone().into_bytes();
        let at = damaged.len() / 2;
        damaged[at] = if damaged[at] == b'1' { b'2' } else { b'1' };
        let damaged = String::from_utf8(damaged).expect("ASCII");
        assert_ne!(fingerprint(&original), fingerprint(&damaged));
        assert_eq!(fingerprint(&original), fingerprint(&original.clone()));
    }

    #[test]
    fn a_short_search_budget_or_a_broken_committee_bound_fails() {
        assert!(check_search_budget(192, 3, 256, 64).is_err());
        let spec = spec_with_trials(E1, 1);
        let mut record = spec
            .run_range_records(&Campaign::serial(), 0, 1)
            .expect("runs")[0];
        record.metrics.rounds = 1;
        record.metrics.messages_sent = 27 * 27 + 27 * 13 + 1;
        assert!(check_committee_bound(&record, 27, 13).is_err());
    }
}
