//! Requests and their in-process layer decomposition.
//!
//! [`Ask`] is one query as the benchmark sends it; [`Ask::wire`] and
//! [`Ask::request`] build the wire frame and the identical in-process
//! `QueryRequest` (the same mapping the server applies), so a served answer
//! can be checked atom for atom against `XplainService::explain`.
//!
//! [`decompose`] is the traced run's per-layer view of one request.  It
//! calls each layer through its public function, in the order the served
//! path runs them:
//!
//! ```text
//! request
//! ├─ pxql.parse          pxql::parse_query
//! ├─ service.view        XplainService::view
//! ├─ explain             PerfXplain::explain_in / explain_full_in
//! │  ├─ query.verify       BoundQuery::verify_preconditions      (replayed)
//! │  ├─ training.enumerate prepare_encoded_training_in           (replayed)
//! │  └─ bridge.featurize   DatasetBridge::encode_from_view       (replayed)
//! └─ narrate             narrate::narrate
//! metrics.assess         metrics::assess over the final training set
//! ```
//!
//! The explain call's phases run inside it and cannot be timed in place, so
//! they are replayed separately (outside the request span) and recorded as
//! its children: its self time is clause growth.  Assessment — the paper's
//! precision, generality and relevance — is what a request asks for with
//! `assess`; the workloads do not ask for it over the wire, so it is timed
//! beside the request, as the step that request would add.  Relief and
//! `DecisionTree::fit` do not appear because the served path never calls
//! them — `explain.rs` grows clauses with
//! `best_split_for_attribute_filtered`, and Relief runs only behind the
//! RuleOfThumb baseline.

use crate::gen::Pair;
use crate::trace::Tracer;
use perfxplain_core::bridge::DatasetBridge;
use perfxplain_core::pairs::PairCatalog;
use perfxplain_core::{
    assess, narrate, prepare_encoded_training_in, pxql, BoundQuery, EncodedTraining, ExecutionLog,
    PerfXplain, QueryOutcome, QueryRequest, XplainService,
};
use perfxplain_server::WireRequest;

/// One query as a workload asks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Ask {
    pub query: &'static str,
    pub left: String,
    pub right: String,
    pub auto_despite: bool,
    pub narrate: bool,
}

impl Ask {
    pub fn plain(query: &'static str, (left, right): Pair) -> Ask {
        Ask {
            query,
            left,
            right,
            auto_despite: false,
            narrate: false,
        }
    }

    pub fn wire(&self) -> WireRequest {
        WireRequest {
            query: Some(self.query.to_string()),
            left: Some(self.left.clone()),
            right: Some(self.right.clone()),
            auto_despite: self.auto_despite.then_some(true),
            narrate: self.narrate.then_some(true),
            ..WireRequest::default()
        }
    }

    pub fn request(&self) -> QueryRequest {
        let mut request =
            QueryRequest::text(self.query).with_pair(self.left.clone(), self.right.clone());
        if self.auto_despite {
            request = request.with_despite_extension();
        }
        if self.narrate {
            request = request.with_narration();
        }
        request
    }
}

/// The comparable content of an answer: rendered atoms plus quality.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub because: Vec<String>,
    pub despite: Vec<String>,
    pub quality: [Option<f64>; 3],
    pub narration: Option<String>,
}

impl Answer {
    pub fn of_outcome(outcome: &QueryOutcome) -> Answer {
        let atoms = |p: &pxql::Predicate| p.atoms().iter().map(|a| a.to_string()).collect();
        let q = outcome.quality.as_ref();
        Answer {
            because: atoms(&outcome.explanation.because),
            despite: atoms(&outcome.explanation.despite),
            quality: [
                q.and_then(|q| q.precision.value),
                q.and_then(|q| q.generality.value),
                q.and_then(|q| q.relevance.value),
            ],
            narration: outcome.narration.clone(),
        }
    }

    pub fn of_wire(response: &perfxplain_server::WireResponse) -> Answer {
        Answer {
            because: response.because.clone().unwrap_or_default(),
            despite: response.despite.clone().unwrap_or_default(),
            quality: [response.precision, response.generality, response.relevance],
            narration: response.narration.clone(),
        }
    }
}

/// Checks a served answer against in-process `XplainService::explain` on
/// the same service; `Err` describes the first difference.
pub fn check_served(
    service: &XplainService,
    ask: &Ask,
    served: &perfxplain_server::WireResponse,
) -> Result<(), String> {
    let expected = service
        .explain(&ask.request())
        .map(|o| Answer::of_outcome(&o))
        .map_err(|e| format!("in-process explain of {ask:?} failed: {e}"))?;
    let got = Answer::of_wire(served);
    if got != expected {
        return Err(format!(
            "served answer differs from in-process for {ask:?}:\n  served     {got:?}\n  in-process {expected:?}"
        ));
    }
    Ok(())
}

/// One request's per-layer numbers (milliseconds unless noted).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Plain in-process `XplainService::explain` of the same request.
    pub in_process_ms: f64,
    pub parse_ms: f64,
    pub view_ms: f64,
    pub verify_ms: f64,
    pub enumerate_ms: f64,
    pub featurize_ms: f64,
    pub clause_ms: f64,
    pub assess_ms: f64,
    pub narrate_ms: f64,
    /// Share of the request span its direct children cover.
    pub coverage: f64,
    pub related_pairs: f64,
    pub sampled: f64,
    pub attributes: f64,
}

fn ms(tracer: &Tracer, id: u64) -> f64 {
    tracer.span(id).duration_ms()
}

/// Replays the featurize phase exactly as `PerfXplain::encode_bridge` runs
/// it (catalog restriction and exclusions included).
fn featurize(
    log: &ExecutionLog,
    engine: &PerfXplain,
    training: &EncodedTraining<'_>,
    query: &BoundQuery,
) -> DatasetBridge {
    let config = engine.config();
    let catalog = PairCatalog::from_raw(log.catalog(query.kind))
        .restrict_to_groups(config.feature_level.allowed_groups());
    let excluded = perfxplain_core::query::excluded_raw_features(query, config);
    let poi = training
        .poi_rows(query)
        .expect("the pair of interest is in the view after verify_preconditions");
    DatasetBridge::encode_from_view(training, poi, &catalog, &excluded, config.sim_threshold)
}

/// Runs `ask` through every layer on `service`, recording spans for request
/// `request_id`, and with `assess` also times assessing its answer.  `log`
/// is a snapshot of the served log at the service's current generation
/// (phases that take the log run against it, so the view lookup can go
/// through the service's own lock); the service must not be mutated while
/// this runs.
pub fn decompose(
    service: &XplainService,
    log: &ExecutionLog,
    ask: &Ask,
    assess_answer: bool,
    tracer: &mut Tracer,
    request_id: u64,
) -> Result<Layers, String> {
    let started = std::time::Instant::now();
    let outcome = service
        .explain(&ask.request())
        .map_err(|e| format!("in-process explain of {ask:?} failed: {e}"))?;
    let in_process_ms = started.elapsed().as_secs_f64() * 1e3;
    if outcome.generation != log.generation() {
        return Err("the log snapshot is stale".to_string());
    }
    let effective = outcome.query.clone();
    let engine = PerfXplain::new(service.config().clone());
    let sim = engine.config().sim_threshold;
    let bound = BoundQuery::new(
        pxql::parse_query(ask.query).map_err(|e| e.to_string())?,
        ask.left.clone(),
        ask.right.clone(),
    );

    // Replays of the phases inside the explain call, in product order.
    let view = service.view(bound.kind);
    let mut replays = Vec::new();
    let (verified, id) = tracer.time("query.verify", None, request_id, || {
        bound.verify_preconditions(log, sim)
    });
    verified.map_err(|e| e.to_string())?;
    replays.push(id);
    let enumerate = |tracer: &mut Tracer, query: &BoundQuery, replays: &mut Vec<u64>| {
        let (training, id) = tracer.time("training.enumerate", None, request_id, || {
            prepare_encoded_training_in(log, view.clone(), query, engine.config())
        });
        replays.push(id);
        training.map_err(|e| e.to_string())
    };
    let mut training = enumerate(tracer, &bound, &mut replays)?;
    let extended = ask.auto_despite
        && (training.num_expected() as f64 / training.len().max(1) as f64)
            < engine.config().relevance_threshold;
    let mut attributes = 0;
    if extended {
        let (bridge, id) = tracer.time("bridge.featurize", None, request_id, || {
            featurize(log, &engine, &training, &bound)
        });
        replays.push(id);
        attributes = bridge.num_attributes();
        training = enumerate(tracer, &effective, &mut replays)?;
    }
    let (bridge, id) = tracer.time("bridge.featurize", None, request_id, || {
        featurize(log, &engine, &training, &effective)
    });
    replays.push(id);
    let attributes = attributes.max(bridge.num_attributes());

    // The request itself, phase by phase.
    let root = tracer.open("request", None, request_id);
    let (parsed, parse_id) = tracer.time("pxql.parse", Some(root), request_id, || {
        pxql::parse_query(ask.query)
    });
    let bound = BoundQuery::new(
        parsed.map_err(|e| e.to_string())?,
        ask.left.clone(),
        ask.right.clone(),
    );
    let (view, view_id) = tracer.time("service.view", Some(root), request_id, || {
        service.view(bound.kind)
    });
    let (explained, explain_id) = tracer.time("explain", Some(root), request_id, || {
        if ask.auto_despite {
            engine.explain_full_in(log, view, &bound).map(|(e, _)| e)
        } else {
            engine.explain_in(log, view, &bound)
        }
    });
    let explanation = explained.map_err(|e| e.to_string())?;
    let narrate_id = ask.narrate.then(|| {
        tracer
            .time("narrate", Some(root), request_id, || {
                narrate(&bound, &explanation)
            })
            .1
    });
    tracer.close(root);
    let assess_id = assess_answer.then(|| {
        tracer
            .time("metrics.assess", None, request_id, || {
                assess(&training.materialise(sim), &explanation)
            })
            .1
    });
    for id in &replays {
        tracer.adopt(*id, explain_id);
    }
    if explanation != outcome.explanation {
        return Err(format!("decomposed explanation differs for {ask:?}"));
    }

    let sum_named = |name: &str| -> f64 {
        replays
            .iter()
            .filter(|&&id| tracer.span(id).name == name)
            .map(|&id| ms(tracer, id))
            .sum()
    };
    let children = [Some(parse_id), Some(view_id), Some(explain_id), narrate_id];
    let covered: f64 = children.iter().flatten().map(|&id| ms(tracer, id)).sum();
    let (verify_ms, enumerate_ms, featurize_ms) = (
        sum_named("query.verify"),
        sum_named("training.enumerate"),
        sum_named("bridge.featurize"),
    );
    Ok(Layers {
        in_process_ms,
        parse_ms: ms(tracer, parse_id),
        view_ms: ms(tracer, view_id),
        verify_ms,
        enumerate_ms,
        featurize_ms,
        clause_ms: (ms(tracer, explain_id) - verify_ms - enumerate_ms - featurize_ms).max(0.0),
        assess_ms: assess_id.map_or(0.0, |id| ms(tracer, id)),
        narrate_ms: narrate_id.map_or(0.0, |id| ms(tracer, id)),
        coverage: covered / ms(tracer, root).max(1e-9),
        related_pairs: training.related_pairs as f64,
        sampled: training.len() as f64,
        attributes: attributes as f64,
    })
}
