//! Property-based tests (proptest) on the core invariants of the data model
//! and the query language, plus old/new equivalence properties of the
//! streaming columnar training pipeline.

use perfxplain::pxql::{parse_predicate, parse_query, Atom, FeatureSource, Op, Predicate, Value};
use perfxplain::{
    compute_pair_features, BoundQuery, ExecutionKind, ExecutionLog, ExecutionRecord, ExplainConfig,
    FeatureCatalog, FeatureDef, FeatureKind, FsyncPolicy, PairExample, PairLabel, DURATION_FEATURE,
};
use perfxplain_core::columnar::ColumnarLog;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_record(id: String) -> impl Strategy<Value = ExecutionRecord> {
    (
        -1.0e9..1.0e9f64,
        0.0..1.0e12f64,
        prop_oneof![Just("simple-filter.pig"), Just("simple-groupby.pig")],
        1.0..4000.0f64,
    )
        .prop_map(move |(metric, inputsize, script, duration)| {
            ExecutionRecord::job(id.clone())
                .with_feature("somemetric", metric)
                .with_feature("inputsize", inputsize)
                .with_feature("pigscript", script)
                .with_feature("duration", duration)
        })
}

fn catalog() -> FeatureCatalog {
    FeatureCatalog::from_defs(vec![
        FeatureDef::numeric("somemetric"),
        FeatureDef::numeric("inputsize"),
        FeatureDef::nominal("pigscript"),
        FeatureDef::numeric("duration"),
    ])
}

// ---------------------------------------------------------------------------
// Pair-feature construction invariants (Table 1)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn pair_features_satisfy_table1_invariants(
        left in arb_record("left".to_string()),
        right in arb_record("right".to_string()),
    ) {
        let catalog = catalog();
        let features = compute_pair_features(&catalog, &left, &right, 0.10);
        for def in catalog.defs() {
            let is_same = features.get(&format!("{}_isSame", def.name)).unwrap();
            let compare = features.get(&format!("{}_compare", def.name)).unwrap();
            let diff = features.get(&format!("{}_diff", def.name)).unwrap();
            let base = features.get(&def.name).unwrap();

            // isSame = T  ⇒  the base feature carries the shared value and
            //               the diff feature is missing.
            if *is_same == Value::Bool(true) {
                prop_assert!(!base.is_null());
                prop_assert!(diff.is_null());
                // A numeric pair that is exactly equal is also SIM.
                if let Value::Str(c) = compare {
                    prop_assert_eq!(c.as_str(), "SIM");
                }
            }
            // isSame = F  ⇒  no base value is copied.
            if *is_same == Value::Bool(false) {
                prop_assert!(base.is_null());
            }
            // compare is only ever LT / SIM / GT, and only for numeric
            // features.
            if let Value::Str(c) = compare {
                prop_assert!(["LT", "SIM", "GT"].contains(&c.as_str()));
                prop_assert_eq!(def.kind, perfxplain::FeatureKind::Numeric);
            }
            // diff is only defined for nominal features and always carries a
            // pair of values.
            if !diff.is_null() {
                prop_assert_eq!(def.kind, perfxplain::FeatureKind::Nominal);
                prop_assert!(matches!(diff, Value::Pair(_, _)));
            }
        }
    }

    #[test]
    fn pair_features_are_symmetric_under_swap(
        left in arb_record("left".to_string()),
        right in arb_record("right".to_string()),
    ) {
        let catalog = catalog();
        let forward = compute_pair_features(&catalog, &left, &right, 0.10);
        let backward = compute_pair_features(&catalog, &right, &left, 0.10);
        for def in catalog.defs() {
            // isSame is symmetric.
            prop_assert_eq!(
                forward.get(&format!("{}_isSame", def.name)),
                backward.get(&format!("{}_isSame", def.name))
            );
            // compare flips LT <-> GT and keeps SIM.
            let f = forward.get(&format!("{}_compare", def.name)).unwrap();
            let b = backward.get(&format!("{}_compare", def.name)).unwrap();
            match (f, b) {
                (Value::Str(x), Value::Str(y)) => {
                    let flipped = match x.as_str() {
                        "LT" => "GT",
                        "GT" => "LT",
                        other => other,
                    };
                    prop_assert_eq!(flipped, y.as_str());
                }
                (Value::Null, Value::Null) => {}
                other => prop_assert!(false, "asymmetric compare: {:?}", other),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PXQL invariants
// ---------------------------------------------------------------------------

fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        // Feature names never collide with PXQL keywords thanks to the
        // prefix.
        "f_[a-z_]{0,10}",
        prop_oneof![
            Just(Op::Eq),
            Just(Op::Ne),
            Just(Op::Lt),
            Just(Op::Le),
            Just(Op::Gt),
            Just(Op::Ge)
        ],
        prop_oneof![
            (-1.0e6..1.0e6f64).prop_map(Value::Num),
            any::<bool>().prop_map(Value::Bool),
            "[A-Za-z][A-Za-z0-9_.-]{0,8}".prop_map(Value::Str),
        ],
    )
        .prop_map(|(feature, op, constant)| Atom {
            feature,
            op,
            constant,
        })
}

proptest! {
    #[test]
    fn predicates_round_trip_through_their_display_form(
        atoms in proptest::collection::vec(arb_atom(), 1..5)
    ) {
        let predicate = Predicate::from_atoms(atoms);
        let text = predicate.to_string();
        let reparsed = parse_predicate(&text).expect("rendered predicates parse");
        prop_assert_eq!(reparsed.width(), predicate.width());
        // Evaluation agrees on the features the predicate mentions (built
        // from the predicate's own constants, so equality atoms hold).
        let mut features = std::collections::BTreeMap::new();
        for atom in predicate.atoms() {
            features.insert(atom.feature.clone(), atom.constant.clone());
        }
        prop_assert_eq!(reparsed.eval(&features), predicate.eval(&features));
    }

    #[test]
    fn atoms_on_missing_features_never_hold(atom in arb_atom()) {
        let empty: std::collections::BTreeMap<String, Value> = std::collections::BTreeMap::new();
        prop_assert!(!atom.eval(&empty));
    }
}

// ---------------------------------------------------------------------------
// Classification / metric invariants over small random logs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn classification_is_consistent_with_metric_bounds(seed in 0u64..1000) {
        // Build a small random-ish log deterministically from the seed.
        let mut log = ExecutionLog::new();
        for i in 0..14u64 {
            let x = (seed.wrapping_mul(31).wrapping_add(i * 7)) % 5;
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", (1 + x) as f64 * 1.0e9)
                    .with_feature("blocksize", if i % 2 == 0 { 1024.0 } else { 64.0 })
                    .with_feature("duration", 100.0 + (x as f64) * 120.0 + (i % 3) as f64),
            );
        }
        log.rebuild_catalogs();

        let query = perfxplain::pxql::parse_query(
            "OBSERVED duration_compare = SIM\nEXPECTED duration_compare = GT",
        )
        .unwrap();
        let bound = BoundQuery::new(query, "job_0", "job_1");
        let config = ExplainConfig::default().with_sample_size(200);

        // Every related pair is classified consistently with its own
        // features, and metric estimates stay within [0, 1].
        let catalog = log.job_catalog().clone();
        let jobs: Vec<&ExecutionRecord> = log.jobs().collect();
        let mut observed = 0usize;
        let mut expected = 0usize;
        for a in &jobs {
            for b in &jobs {
                if a.id == b.id {
                    continue;
                }
                let pair = PairExample::build(&catalog, a, b, config.sim_threshold);
                match bound.classify(&pair) {
                    PairLabel::Observed => observed += 1,
                    PairLabel::Expected => expected += 1,
                    PairLabel::Unrelated => {}
                }
            }
        }
        if observed > 0 && expected > 0 {
            let set = perfxplain::prepare_encoded_training(&log, &bound, &config).unwrap();
            prop_assert_eq!(set.num_observed() + set.num_expected(), set.len());
            let quality = perfxplain::assess(&set, &perfxplain::Explanation::default());
            for estimate in [quality.precision, quality.generality, quality.relevance] {
                if let Some(v) = estimate.value {
                    prop_assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming columnar pipeline ≡ map-based pipeline
// ---------------------------------------------------------------------------

/// A deterministic pseudo-random log: numeric and nominal features, missing
/// values, and duration regimes that give both observed and expected pairs.
fn random_log(seed: u64) -> ExecutionLog {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut log = ExecutionLog::new();
    let n = 10 + (mix(seed) % 8) as usize;
    for i in 0..n {
        let h = mix(seed.wrapping_mul(31).wrapping_add(i as u64));
        let input = [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize];
        let blocks = [64.0, 256.0, 1024.0][((h >> 8) % 3) as usize];
        let script = ["a.pig", "b.pig", "c.pig"][((h >> 16) % 3) as usize];
        let fast = (h >> 24).is_multiple_of(2);
        let duration = if fast {
            600.0
        } else {
            input / 5.0e7 + (h % 7) as f64
        };
        let mut record = ExecutionRecord::job(format!("job_{i}"))
            .with_feature("inputsize", input)
            .with_feature("blocksize", blocks)
            .with_feature("duration", duration);
        // Sprinkle in missing and nominal features.
        if !(h >> 32).is_multiple_of(4) {
            record.set_feature("pigscript", script);
        }
        if !(h >> 34).is_multiple_of(3) {
            record.set_feature("iosortfactor", 10.0 + ((h >> 36) % 3) as f64);
        }
        log.push(record);
    }
    log.rebuild_catalogs();
    log
}

/// A pool of structurally different queries: compare / isSame-blocking /
/// no-despite / base-feature atoms.
fn query_pool() -> Vec<perfxplain::pxql::PxqlQuery> {
    let mut queries = vec![
        parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap(),
        parse_query(
            "DESPITE pigscript_isSame = T\n\
             OBSERVED duration_compare = GT\n\
             EXPECTED duration_compare = SIM",
        )
        .unwrap(),
        parse_query(
            "OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap(),
    ];
    // A despite clause over a base feature and an isSame feature together.
    let base = parse_query("OBSERVED duration_compare = SIM\nEXPECTED duration_compare = GT")
        .unwrap()
        .with_despite(Predicate::from_atoms(vec![
            Atom::new("blocksize", Op::Ge, 256i64),
            Atom::eq("inputsize_isSame", false),
        ]));
    queries.push(base);
    queries
}

/// The eager, map-based reference: classify every ordered pair through
/// `compute_selected_pair_features` (exactly what the seed implementation
/// did, minus blocking/capping, which only prune pairs that classify as
/// unrelated anyway).
fn reference_related_pairs(
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Vec<(usize, usize, PairLabel)> {
    let records: Vec<&ExecutionRecord> = log.jobs().collect();
    let mut related = Vec::new();
    for i in 0..records.len() {
        for j in 0..records.len() {
            if i == j {
                continue;
            }
            let label = query.classify_records(log, records[i], records[j], config.sim_threshold);
            if label.is_related() {
                related.push((i, j, label));
            }
        }
    }
    related
}

/// An uncapped configuration, so streaming and eager candidate selection
/// are comparable as sets.
fn uncapped_config() -> ExplainConfig {
    let mut config = ExplainConfig::default().with_sample_size(400);
    config.max_candidate_pairs = usize::MAX;
    config
}

/// The key the service's sample memo stores a training set under: the
/// three clauses and the request's effective configuration.
type SampleKey = (Predicate, Predicate, Predicate, ExplainConfig);

fn sample_key(bound: &BoundQuery, config: &ExplainConfig) -> SampleKey {
    let q = &bound.query;
    (
        q.despite.clone(),
        q.observed.clone(),
        q.expected.clone(),
        config.clone(),
    )
}

/// The keys the service has drawn a training set for at the current log
/// generation: what its sample memo must hold.
#[derive(Default)]
struct MemoModel {
    generation: u64,
    keys: Vec<SampleKey>,
}

impl MemoModel {
    /// Forgets every key once the log moved to another generation.
    fn at(&mut self, generation: u64) {
        if generation != self.generation {
            self.generation = generation;
            self.keys.clear();
        }
    }

    fn holds(&self, key: &SampleKey) -> bool {
        self.keys.contains(key)
    }

    fn store(&mut self, key: SampleKey) {
        if !self.holds(&key) {
            self.keys.push(key);
        }
    }
}

/// Two pairs of interest of `log` for which `template`'s preconditions
/// hold, searched from the `offset`-th job id on; fixed pairs (which may
/// fail the preconditions) stand in when fewer exist.
fn pairs_of_interest(
    log: &ExecutionLog,
    template: &perfxplain::pxql::PxqlQuery,
    sim_threshold: f64,
    offset: usize,
) -> Vec<(String, String)> {
    let mut ids: Vec<&str> = Vec::new();
    for record in log.jobs() {
        if !ids.contains(&record.id.as_str()) {
            ids.push(&record.id);
        }
    }
    let start = offset % ids.len().max(1);
    ids.rotate_left(start);
    let mut pairs = Vec::new();
    'search: for left in &ids {
        for right in &ids {
            if left == right {
                continue;
            }
            let bound = BoundQuery::new(template.clone(), *left, *right);
            if bound.verify_preconditions(log, sim_threshold).is_ok() {
                pairs.push((left.to_string(), right.to_string()));
                if pairs.len() == 2 {
                    break 'search;
                }
            }
        }
    }
    for fallback in [("job_0", "job_1"), ("job_1", "job_0")] {
        if pairs.len() < 2 {
            pairs.push((fallback.0.to_string(), fallback.1.to_string()));
        }
    }
    pairs
}

/// One query step of the interleaving properties.  The service answers
/// `template` about two pairs of interest, once more with the despite
/// extension, and once under a per-request configuration whose sample
/// size (even steps) or seed (odd steps) differs.  Every answer must equal
/// the stateless engine's over a snapshot of the log, and
/// `sample_reused` must be true exactly when the model held every key the
/// request draws a training set under.
fn check_query_step(
    service: &perfxplain::XplainService,
    config: &ExplainConfig,
    template: &perfxplain::pxql::PxqlQuery,
    step: usize,
    memo: &mut MemoModel,
) -> Result<(), TestCaseError> {
    use perfxplain::{PerfXplain, QueryRequest};

    let snapshot = service.snapshot();
    prop_assert_eq!(service.generation(), snapshot.generation());
    memo.at(snapshot.generation());
    let mut varied = config.clone();
    if step.is_multiple_of(2) {
        varied.sample_size -= 1;
    } else {
        varied.seed += 1;
    }
    let pairs = pairs_of_interest(&snapshot, template, config.sim_threshold, step);
    let asks = [
        (&pairs[0], false, config),
        (&pairs[1], false, config),
        (&pairs[0], true, config),
        (&pairs[1], false, &varied),
    ];
    for ((left, right), extend, ask_config) in asks {
        let bound = BoundQuery::new(template.clone(), left.clone(), right.clone());
        let mut request = QueryRequest::bound(bound.clone());
        if extend {
            request = request.with_despite_extension();
        }
        if ask_config != config {
            request = request.with_config(ask_config.clone());
        }
        let served = service.explain(&request);
        let engine = PerfXplain::new(ask_config.clone());
        let fresh = if extend {
            engine.explain_full(&snapshot, &bound)
        } else {
            engine
                .explain(&snapshot, &bound)
                .map(|e| (e, bound.clone()))
        };
        let first_key = sample_key(&bound, ask_config);
        match (&served, &fresh) {
            (Ok(outcome), Ok((explanation, effective))) => {
                prop_assert_eq!(&outcome.explanation, explanation);
                prop_assert_eq!(&outcome.query, effective);
                prop_assert_eq!(outcome.generation, snapshot.generation());
                let mut keys = vec![first_key];
                if outcome.query != bound {
                    keys.push(sample_key(&outcome.query, ask_config));
                }
                let reused = keys.iter().all(|key| memo.holds(key));
                prop_assert_eq!(
                    outcome.sample_reused,
                    reused,
                    "sample_reused for {:?} extend={} at step {}",
                    (left, right),
                    extend,
                    step
                );
                for key in keys {
                    memo.store(key);
                }
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b);
                // A failed request stored its first training set only when
                // that set was drawn, and the failure came after it.
                let drawn = bound
                    .verify_preconditions(&snapshot, ask_config.sim_threshold)
                    .is_ok()
                    && perfxplain_core::prepare_encoded_training(&snapshot, &bound, ask_config)
                        .is_ok();
                if drawn {
                    memo.store(first_key);
                }
            }
            other => prop_assert!(false, "service/fresh divergence: {:?}", other),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streaming enumerator yields exactly the related pairs (and
    /// labels) of the eager map-based path.
    #[test]
    fn streaming_related_pairs_match_the_map_based_path(seed in 0u64..500) {
        let log = random_log(seed);
        let config = uncapped_config();
        for query in query_pool() {
            let bound = BoundQuery::new(query, "job_0", "job_1");
            let view = ColumnarLog::build_auto(&log, bound.kind);
            let related = perfxplain_core::collect_related_pairs_in(&view, &bound, &log, &config);
            let mut streaming: Vec<(usize, usize, PairLabel)> = related
                .iter()
                .map(|p| (p.left, p.right, p.label))
                .collect();
            streaming.sort_unstable_by_key(|&(l, r, _)| (l, r));
            let mut reference = reference_related_pairs(&log, &bound, &config);
            reference.sort_unstable_by_key(|&(l, r, _)| (l, r));
            prop_assert_eq!(streaming, reference);
        }
    }

    /// The one-pass columnar dataset encoding produces a dataset identical
    /// to the PairExample-map bridge: same schema, same pair-of-interest
    /// row, same cells and labels.
    #[test]
    fn encoded_dataset_matches_the_bridge(seed in 0u64..200) {
        use perfxplain_core::bridge::DatasetBridge;
        use perfxplain_core::pairs::PairCatalog;

        let log = random_log(seed);
        let config = uncapped_config();
        for query in query_pool() {
            let bound = BoundQuery::new(query, "job_0", "job_1");
            if bound.verify_preconditions(&log, config.sim_threshold).is_err() {
                continue;
            }
            let Ok(encoded) =
                perfxplain_core::training::prepare_encoded_training(&log, &bound, &config)
            else {
                continue;
            };
            let poi = bound.pair_of_interest(&log, config.sim_threshold).unwrap();
            let catalog = PairCatalog::from_raw(log.job_catalog())
                .restrict_to_groups(config.feature_level.allowed_groups());
            let excluded = perfxplain_core::query::excluded_raw_features(&bound, &config);

            let by_maps = DatasetBridge::build(&encoded, &poi, &catalog, &excluded);
            let poi_rows = (
                encoded.view.row_of(&log, &bound.left_id).unwrap(),
                encoded.view.row_of(&log, &bound.right_id).unwrap(),
            );
            let by_view = DatasetBridge::encode_from_view(
                &encoded, poi_rows, &catalog, &excluded, config.sim_threshold,
            );

            prop_assert_eq!(by_maps.num_attributes(), by_view.num_attributes());
            for attr in 0..by_maps.num_attributes() {
                prop_assert_eq!(by_maps.attr_name(attr), by_view.attr_name(attr));
                prop_assert_eq!(
                    by_maps.poi_value(attr), by_view.poi_value(attr),
                    "poi diverges on {} (seed {})", by_maps.attr_name(attr), seed
                );
            }
            let (a, b) = (by_maps.dataset(), by_view.dataset());
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.labels(), b.labels());
            prop_assert_eq!(a.attributes(), b.attributes());
            for attr in 0..a.num_attributes() {
                for row in 0..a.len() {
                    prop_assert_eq!(
                        a.value(row, attr), b.value(row, attr),
                        "row {} diverges on {}", row, a.attributes()[attr].name
                    );
                }
            }
        }
    }

    /// An [`perfxplain::XplainService`] never serves a stale view or a
    /// stale training sample: under any interleaving of `push` /
    /// `rebuild_catalogs` mutations and queries, every query's answer is
    /// identical to a stateless engine running against a freshly encoded
    /// snapshot of the log at that moment, and the sample is reused exactly
    /// when an equal template and configuration was answered earlier at
    /// that generation.
    #[test]
    fn service_answers_match_a_fresh_view_under_any_interleaving(
        seed in 0u64..120,
        ops in proptest::collection::vec(0u32..4, 1usize..12),
    ) {
        use perfxplain::XplainService;

        let config = uncapped_config();
        let service = XplainService::with_config(random_log(seed), config.clone());
        let queries = query_pool();
        let mut memo = MemoModel::default();

        let mut extra = 0usize;
        for (step, op) in ops.iter().enumerate() {
            match op {
                // Mutate: push a record (catalogs intentionally left stale
                // until the next rebuild, as after any bulk load).
                0 => service.with_log_mut(|log| {
                    extra += 1;
                    let h = seed.wrapping_mul(131).wrapping_add(step as u64);
                    log.push(
                        ExecutionRecord::job(format!("extra_{extra}"))
                            .with_feature("inputsize", [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize])
                            .with_feature("blocksize", 256.0)
                            .with_feature("duration", 400.0 + (h % 300) as f64),
                    );
                }),
                // Mutate: recompute the catalogs.
                1 => service.with_log_mut(|log| log.rebuild_catalogs()),
                // Query: the service (cached view and sample memo) must
                // agree with a fresh engine over a snapshot of the log.
                _ => {
                    let template = &queries[(seed as usize + step) % queries.len()];
                    check_query_step(&service, &config, template, step, &mut memo)?;
                }
            }
        }
    }

    /// Delta-maintained views are bit-identical to a from-scratch rebuild.
    /// Under any interleaving of appends (the O(tail) delta-refresh path),
    /// appends that change the catalog (forced full rebuild), non-append
    /// mutations (`with_log_mut`, unconditional eviction), tail compactions
    /// and queries, the view the service serves after every step equals
    /// `ColumnarLog::build_sharded` over a snapshot of the log at that
    /// moment — and query answers agree with a stateless engine.
    #[test]
    fn delta_maintained_views_are_bit_identical_to_a_rebuild(
        seed in 0u64..120,
        shards in 1usize..8,
        ops in proptest::collection::vec(0u32..8, 1usize..14),
    ) {
        use perfxplain::{ExecutionKind, XplainService};
        use perfxplain_core::columnar::ColumnarLog;

        let config = uncapped_config();
        let service = XplainService::with_config(random_log(seed), config.clone());
        let queries = query_pool();
        let mut memo = MemoModel::default();

        let mut extra = 0usize;
        for (step, op) in ops.iter().enumerate() {
            let h = seed.wrapping_mul(131).wrapping_add(step as u64);
            match op {
                // Append through the delta path: known features only, so
                // the catalog (and the rewrite watermark) stay put.  Every
                // third batch reuses an existing id — appended duplicates
                // must shadow their base rows exactly like a rebuild.
                0..=2 => {
                    extra += 1;
                    let id = if h % 3 == 0 {
                        "job_0".to_string()
                    } else {
                        format!("appended_{extra}")
                    };
                    service.append(vec![
                        ExecutionRecord::job(id)
                            .with_feature("inputsize", [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize])
                            .with_feature("blocksize", 256.0)
                            .with_feature("pigscript", ["a.pig", "d.pig"][((h >> 8) % 2) as usize])
                            .with_feature("duration", 400.0 + (h % 300) as f64),
                    ])
                    .expect("unjournaled append is infallible");
                }
                // Append a record carrying a brand-new feature: the batch
                // catalog differs, the rewrite watermark moves, and the
                // service must rebuild instead of splicing.
                3 => {
                    extra += 1;
                    service.append(vec![
                        ExecutionRecord::job(format!("appended_{extra}"))
                            .with_feature(format!("knob_{extra}"), (h % 10) as f64)
                            .with_feature("duration", 500.0),
                    ])
                    .expect("unjournaled append is infallible");
                }
                // Non-append mutation: unconditional eviction path.
                4 => service.with_log_mut(|log| {
                    extra += 1;
                    log.push(
                        ExecutionRecord::job(format!("pushed_{extra}"))
                            .with_feature("inputsize", 4.0e9)
                            .with_feature("duration", 700.0),
                    );
                    log.rebuild_catalogs();
                }),
                // Fold every cached tail into its base; content-neutral, and
                // the memoized samples survive it.
                5 => {
                    service.compact_views();
                }
                // Query: the served answer must match a stateless engine
                // over a snapshot of the current log.
                _ => {
                    let template = &queries[(seed as usize + step) % queries.len()];
                    check_query_step(&service, &config, template, step, &mut memo)?;
                }
            }
            // After every step, the view the service would serve is
            // bit-identical to encoding the current log from scratch.
            let snapshot = service.snapshot();
            let served = service.view(ExecutionKind::Job);
            let rebuilt = ColumnarLog::build_sharded(&snapshot, ExecutionKind::Job, shards);
            prop_assert_eq!(
                &*served, &rebuilt,
                "served view diverges from a from-scratch rebuild at step {}", step
            );
        }
    }

    /// The sharded parallel encode produces a view bit-identical to the
    /// single-shot build for arbitrary logs and shard counts — including
    /// s = 1, s > n, and logs whose shards have disjoint dictionaries.
    #[test]
    fn sharded_build_is_bit_identical_to_the_single_shot_build(
        seed in 0u64..300,
        shards in 1usize..24,
    ) {
        use perfxplain_core::columnar::ColumnarLog;
        use perfxplain::ExecutionKind;

        let log = random_log(seed);
        let single = ColumnarLog::build(&log, ExecutionKind::Job);
        let sharded = ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards);
        prop_assert_eq!(&sharded, &single);
        prop_assert_eq!(
            ColumnarLog::build_auto(&log, ExecutionKind::Job),
            single
        );

        // A log where every record carries a shard-unique nominal value:
        // every pair of shards has disjoint dictionary entries to merge.
        let mut disjoint = log.clone();
        let mut tagged = ExecutionLog::new();
        for (i, record) in disjoint.records().iter().enumerate() {
            let mut record = record.clone();
            record.set_feature("jobtag", format!("tag_{i}"));
            tagged.push(record);
        }
        disjoint = tagged;
        disjoint.rebuild_catalogs();
        prop_assert_eq!(
            ColumnarLog::build_sharded(&disjoint, ExecutionKind::Job, shards),
            ColumnarLog::build(&disjoint, ExecutionKind::Job)
        );
    }

    /// Sharded ingestion (`from_shards` over per-batch logs) equals pushing
    /// every record serially and rebuilding the catalogs.
    #[test]
    fn sharded_ingestion_equals_the_serial_ingest(
        seed in 0u64..300,
        shards in 1usize..10,
    ) {
        let log = random_log(seed);
        let records: Vec<ExecutionRecord> = log.records().to_vec();
        let chunk_size = records.len().div_ceil(shards).max(1);

        let shard_logs: Vec<ExecutionLog> = records
            .chunks(chunk_size)
            .map(|chunk| {
                let mut shard = ExecutionLog::new();
                for record in chunk {
                    shard.push(record.clone());
                }
                shard.rebuild_catalogs();
                shard
            })
            .collect();
        prop_assert_eq!(&ExecutionLog::from_shards(shard_logs), &log);
    }
}

// ---------------------------------------------------------------------------
// Capped enumeration ≡ a text-grouped reference, in order
// ---------------------------------------------------------------------------

/// The blocking queries' grouping feature.
const BLOCK: &str = "pigscript";

/// A log whose `pigscript` cells exercise every grouping edge of a blocked
/// plan: missing cells, `Bool(true)` beside the string `"T"` (one canonical
/// text), and the string `"NaN"` (the text a NaN number prints as).  Names
/// sort away from their first-occurrence order, and the catalog keeps
/// `pigscript` nominal.
fn blocking_edge_log(seed: u64) -> ExecutionLog {
    let scripts = [
        Some(Value::str("c.pig")),
        Some(Value::str("a.pig")),
        Some(Value::Bool(true)),
        Some(Value::str("T")),
        Some(Value::str("NaN")),
        Some(Value::str("z")),
        None,
    ];
    let mut log = ExecutionLog::new();
    let n = 14 + splitmix(seed) % 8;
    for i in 0..n {
        log.push(edge_record(
            seed,
            i,
            scripts[(splitmix(seed ^ i) % 7) as usize].clone(),
        ));
    }
    log.rebuild_catalogs();
    log
}

/// One job of [`blocking_edge_log`]: input and duration regimes that give
/// both observed and expected pairs, and the given blocking cell.
fn edge_record(seed: u64, i: u64, script: Option<Value>) -> ExecutionRecord {
    let h = splitmix(seed.wrapping_mul(31).wrapping_add(i));
    let input = [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize];
    let duration = if (h >> 8).is_multiple_of(2) {
        600.0
    } else {
        input / 5.0e7 + (h % 7) as f64
    };
    let mut record = ExecutionRecord::job(format!("job_{i}"))
        .with_feature("inputsize", input)
        .with_feature("duration", duration);
    if let Some(script) = script {
        record.set_feature(BLOCK, script);
    }
    record
}

/// The map-based grouping the blocked plan must reproduce: rows keyed by
/// `Value::to_string()` of their blocking cell in a `BTreeMap` (byte order
/// of the text, equal texts in one group), missing cells dropped.  An
/// unblocked plan is one group of every row.
fn reference_groups(
    view: &ColumnarLog,
    log: &ExecutionLog,
    block: Option<&str>,
) -> Vec<Vec<usize>> {
    let Some(feature) = block else {
        return vec![(0..view.num_rows()).collect()];
    };
    let mut groups: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
    for row in 0..view.num_rows() {
        let value = log.records()[view.position(row)].feature(feature);
        if value != Value::Null {
            groups.entry(value.to_string()).or_default().push(row);
        }
    }
    groups.into_values().collect()
}

/// The capped enumeration, spelled out: candidates numbered in group
/// order, then left-hand row, then right-hand row; candidate `k` of `total`
/// kept iff the top 53 bits of SplitMix64(`seed ^ 0xC0FFEE ^ k`), scaled
/// into [0, 1), fall below `max_candidate_pairs / total`; kept candidates
/// classified by `BoundQuery::classify_records`.
fn reference_capped_pairs(
    view: &ColumnarLog,
    groups: &[Vec<usize>],
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Vec<(usize, usize, PairLabel)> {
    let total: u64 = groups
        .iter()
        .map(|g| (g.len() * g.len().saturating_sub(1)) as u64)
        .sum();
    let keep = config.max_candidate_pairs as f64 / total as f64;
    let mut ordinal = 0u64;
    let mut related = Vec::new();
    for group in groups {
        for &left in group {
            for &right in group {
                if left == right {
                    continue;
                }
                let hash = splitmix(config.seed ^ 0xC0FFEE ^ ordinal);
                ordinal += 1;
                if total > config.max_candidate_pairs as u64
                    && (hash >> 11) as f64 / (1u64 << 53) as f64 >= keep
                {
                    continue;
                }
                let label = query.classify_records(
                    log,
                    &log.records()[view.position(left)],
                    &log.records()[view.position(right)],
                    config.sim_threshold,
                );
                if label.is_related() {
                    related.push((left, right, label));
                }
            }
        }
    }
    related
}

/// A query blocked on [`BLOCK`] (its DESPITE clause fixes `pigscript`).
const BLOCKED_QUERY: &str = "DESPITE pigscript_isSame = T AND inputsize_compare = GT\n\
                             OBSERVED duration_compare = SIM\n\
                             EXPECTED duration_compare = GT";

/// [`BLOCKED_QUERY`] without the blocking atom: every row pairs with every
/// other.
const UNBLOCKED_QUERY: &str = "DESPITE inputsize_compare = GT\n\
                               OBSERVED duration_compare = SIM\n\
                               EXPECTED duration_compare = GT";

/// The logs behind the edge views: [`blocking_edge_log`]`(seed)`, the
/// same log with numeric cells `0`, `-0`, `NaN` and `7` pushed into the
/// nominal column after the catalog was built, and a tail of one record
/// per `tail_scripts` cell to append to the second.
fn edge_logs(
    seed: u64,
    tail_scripts: Vec<Value>,
) -> (ExecutionLog, ExecutionLog, Vec<ExecutionRecord>) {
    let base = blocking_edge_log(seed);
    let mut flat = base.clone();
    let base_rows = base.len() as u64;
    for (i, v) in [0.0, -0.0, f64::NAN, 7.0, -0.0, f64::NAN]
        .into_iter()
        .enumerate()
    {
        flat.push(edge_record(seed, base_rows + i as u64, Some(Value::Num(v))));
    }
    let tail = tail_scripts
        .into_iter()
        .enumerate()
        .map(|(i, script)| edge_record(seed, base_rows + 6 + i as u64, Some(script)))
        .collect();
    (base, flat, tail)
}

/// The three views of [`edge_logs`]`(seed)` the edge properties run over,
/// each beside the log it encodes: a view of the base log opened from a
/// snapshot, a flat view of the log with numeric cells in the nominal
/// column, and a delta view over the flat one whose tail appends one
/// record per `tail_scripts` cell.  `tag` and `variant` name the
/// snapshot's scratch directory.
fn edge_views(
    seed: u64,
    tag: &str,
    variant: usize,
    tail_scripts: Vec<Value>,
) -> Vec<(ColumnarLog, ExecutionLog)> {
    use perfxplain::{snapshot, ExecutionKind};

    let (base, mut log, tail) = edge_logs(seed, tail_scripts);
    let dir = snapshot_dir(tag, seed, variant);
    snapshot::persist(&base, &dir, 1 + (seed % 3) as usize).unwrap();
    let views = snapshot::open(&dir).unwrap().into_views();
    let from_snapshot = (views.job, views.log);
    std::fs::remove_dir_all(&dir).unwrap();

    let flat = ColumnarLog::build(&log, ExecutionKind::Job);
    let covered = log.len();
    let flat = (flat, log.clone());
    for record in tail {
        log.push(record);
    }
    let delta = flat.0.with_appended(&log, covered);
    vec![from_snapshot, flat, (delta, log)]
}

/// Runs a blocked and an unblocked query over `view` with the cap set to
/// `cap_percent` of each plan's candidates and compares the streaming
/// enumeration with the reference, pair for pair and in order.
fn assert_capped_enumeration_matches(
    view: &ColumnarLog,
    log: &ExecutionLog,
    cap_percent: u64,
) -> Result<(), TestCaseError> {
    for (text, block) in [(BLOCKED_QUERY, Some(BLOCK)), (UNBLOCKED_QUERY, None)] {
        let query = BoundQuery::new(parse_query(text).unwrap(), "job_0", "job_1");
        let groups = reference_groups(view, log, block);
        let total: usize = groups
            .iter()
            .map(|g| g.len() * g.len().saturating_sub(1))
            .sum();
        let config = ExplainConfig {
            max_candidate_pairs: total * cap_percent as usize / 100,
            ..ExplainConfig::default()
        };
        prop_assert!(config.max_candidate_pairs < total, "the cap must bind");
        let streamed: Vec<(usize, usize, PairLabel)> =
            perfxplain_core::training::collect_related_pairs_in(view, &query, log, &config)
                .iter()
                .map(|p| (p.left, p.right, p.label))
                .collect();
        let reference = reference_capped_pairs(view, &groups, log, &query, &config);
        prop_assert_eq!(streamed, reference, "query {:?}", block);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// With the cap below the candidate total, the streaming enumeration
    /// keeps exactly the reference's candidates and returns its related
    /// pairs in its order — over a flat view (numeric cells `0`, `-0`,
    /// `NaN` and `7` pushed into the nominal column after the catalog was
    /// built), a delta view whose tail adds dictionary values that sort
    /// between the base's, and a view opened from a snapshot.
    #[test]
    fn capped_enumeration_matches_a_text_grouped_reference_in_order(
        seed in 0u64..400,
        cap_percent in 5u64..95,
    ) {
        let tail_scripts = vec![Value::str("b.pig"), Value::str("a.pig"), Value::Bool(true), Value::str("b.pig")];
        for (view, log) in edge_views(seed, "capped", cap_percent as usize, tail_scripts) {
            assert_capped_enumeration_matches(&view, &log, cap_percent)?;
        }
    }

    /// Over the same three edge views, the bridge encoded straight from a
    /// view equals the reference bridge over the sampled pairs' feature maps:
    /// attributes and their dictionaries, the pair of interest's row, the
    /// labels, every row, and the rendered original behind every id of
    /// every attribute (rendered, because `Bool(true)` and `"T"` share one
    /// id and either may be the one kept).  Numeric cells in the nominal
    /// column (`0` and `-0` agree, `7` beside the string `"7"`) and diff
    /// cells in both orders are the cells a wrong encoded-key cache would
    /// mis-encode.
    #[test]
    fn encoded_bridge_matches_the_map_bridge_on_edge_values(seed in 0u64..400) {
        use perfxplain::mlcore::{TestAtom, TestConstant, TestOp};
        use perfxplain_core::pairs::PairCatalog;

        let tail_scripts = vec![Value::str("b.pig"), Value::Bool(true), Value::str("7")];
        let config = ExplainConfig::default();
        for (view, log) in edge_views(seed, "bridge", 0, tail_scripts) {
            let view = std::sync::Arc::new(view);
            for text in [BLOCKED_QUERY, UNBLOCKED_QUERY] {
                let query = parse_query(text).unwrap();
                let rows = view.num_rows();
                let Some((bound, poi)) = (0..rows * rows)
                    .filter(|k| k / rows != k % rows)
                    .map(|k| BoundQuery::new(
                        query.clone(),
                        &log.records()[view.position(k / rows)].id,
                        &log.records()[view.position(k % rows)].id,
                    ))
                    .find_map(|bound| {
                        bound.verify_preconditions(&log, config.sim_threshold).ok()?;
                        let poi = bound.pair_of_interest(&log, config.sim_threshold).ok()?;
                        Some((bound, poi))
                    })
                else {
                    continue;
                };
                let encoded = perfxplain_core::training::prepare_encoded_training_in(
                    &log, view.clone(), &bound, &config,
                ).unwrap();
                let catalog = PairCatalog::from_raw(log.job_catalog())
                    .restrict_to_groups(config.feature_level.allowed_groups());
                let excluded = perfxplain_core::query::excluded_raw_features(&bound, &config);

                let by_maps = DatasetBridge::build(&encoded, &poi, &catalog, &excluded);
                let by_view = DatasetBridge::encode_from_view(
                    &encoded,
                    encoded.poi_rows(&bound).unwrap(),
                    &catalog,
                    &excluded,
                    config.sim_threshold,
                );

                let (a, b) = (by_maps.dataset(), by_view.dataset());
                prop_assert_eq!(a.attributes(), b.attributes());
                for attr in 0..by_maps.num_attributes() {
                    prop_assert_eq!(by_maps.attr_name(attr), by_view.attr_name(attr));
                    prop_assert_eq!(by_maps.poi_value(attr), by_view.poi_value(attr));
                }
                prop_assert_eq!(a.len(), b.len());
                prop_assert_eq!(a.labels(), b.labels());
                for attr in 0..a.num_attributes() {
                    for row in 0..a.len() {
                        prop_assert_eq!(
                            a.value(row, attr), b.value(row, attr),
                            "row {} diverges on {}", row, a.attributes()[attr].name
                        );
                    }
                }
                for (attr, attribute) in a.attributes().iter().enumerate() {
                    for id in 0..attribute.dictionary.len() as u32 {
                        let atom = TestAtom {
                            attribute: attr,
                            op: TestOp::Eq,
                            constant: TestConstant::Nom(id),
                        };
                        prop_assert_eq!(
                            by_maps.atom_to_pxql(&atom).to_string(),
                            by_view.atom_to_pxql(&atom).to_string()
                        );
                    }
                }
            }
        }
    }
}

/// Services over the three edge views of [`edge_views`], each beside the
/// log it serves: one opened from the base log's snapshot, one over the
/// flat log, and one that cached the flat view and then appended the tail,
/// so it answers from a delta view.
fn edge_services(
    seed: u64,
    tag: &str,
    tail_scripts: Vec<Value>,
) -> Vec<(perfxplain::XplainService, ExecutionLog)> {
    use perfxplain::{snapshot, ExecutionKind, XplainService};

    let (base, log, tail) = edge_logs(seed, tail_scripts);
    let dir = snapshot_dir(tag, seed, 0);
    snapshot::persist(&base, &dir, 1 + (seed % 3) as usize).unwrap();
    let from_snapshot = XplainService::open_snapshot(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let flat = XplainService::new(log.clone());
    let delta = XplainService::new(log);
    delta.view(ExecutionKind::Job);
    delta.append(tail).unwrap();
    [from_snapshot, flat, delta]
        .into_iter()
        .map(|service| {
            let log = service.snapshot();
            (service, log)
        })
        .collect()
}

/// Up to `limit` pairs of interest of `log` for which `template`'s
/// preconditions hold, spread over every such pair.
fn spread_pairs_of_interest(
    log: &ExecutionLog,
    template: &perfxplain::pxql::PxqlQuery,
    sim_threshold: f64,
    limit: usize,
) -> Vec<(String, String)> {
    let ids: Vec<&str> = log.jobs().map(|record| record.id.as_str()).collect();
    let mut pairs = Vec::new();
    for left in &ids {
        for right in &ids {
            let bound = BoundQuery::new(template.clone(), *left, *right);
            if left != right && bound.verify_preconditions(log, sim_threshold).is_ok() {
                pairs.push((left.to_string(), right.to_string()));
            }
        }
    }
    let stride = pairs.len().div_ceil(limit).max(1);
    pairs.into_iter().step_by(stride).collect()
}

/// Whether `constant` is `own`, a pair feature value materialised from
/// the pair of interest's records, as the view renders it.  A view interns
/// `Bool(true)` and `"T"` under one id, whose original is the first of
/// them in its column, so for those only the text must agree.  A number in
/// a nominal column has no view id and must be the pair's own, bit for bit:
/// `-0` is not `0`, `NaN` is not `"NaN"` and `7` is not `"7"`.
fn renders_own_value(constant: &Value, own: &Value) -> bool {
    match (constant, own) {
        (Value::Pair(c1, c2), Value::Pair(o1, o2)) => {
            renders_own_value(c1, o1) && renders_own_value(c2, o2)
        }
        (Value::Num(c), Value::Num(o)) => c.to_bits() == o.to_bits(),
        (Value::Num(_), _) | (_, Value::Num(_)) => false,
        _ => constant.to_string() == own.to_string(),
    }
}

/// Every equality constant on a nominal pair feature of `explanation` is
/// the pair of interest's own value of that feature
/// ([`renders_own_value`]): a winning nominal test admits only the pair's
/// own id.
fn assert_constants_are_the_pairs_own(
    explanation: &perfxplain::Explanation,
    poi: &PairExample,
    catalog: &perfxplain_core::pairs::PairCatalog,
) -> Result<(), TestCaseError> {
    for atom in explanation
        .despite
        .atoms()
        .iter()
        .chain(explanation.because.atoms())
    {
        let nominal = catalog
            .get(&atom.feature)
            .is_some_and(|def| def.kind == perfxplain::FeatureKind::Nominal);
        if atom.op != Op::Eq || !nominal {
            continue;
        }
        let own = poi.feature(&atom.feature);
        prop_assert!(
            renders_own_value(&atom.constant, &own),
            "{} = {:?} but the pair's own value is {:?}",
            atom.feature,
            atom.constant,
            own
        );
    }
    Ok(())
}

/// `a == b`, and the same `Debug` text: stricter than `==` on `-0.0`
/// beside `0.0`.
fn assert_identical<T: PartialEq + std::fmt::Debug>(a: &T, b: &T) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    prop_assert!(a == b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One service answers several pairs of interest from each memoized
    /// sample and its one encoded dataset, with and without the despite
    /// extension, over the three edge views.  Every answer after the
    /// first under a key is a hit, and every answer's explanation and
    /// effective query equal the stateless engine's.  The base log mixes
    /// `Bool(true)` and `"T"` in `pigscript`, the flat view adds numeric
    /// `0`, `-0`, `NaN` and `7` there and the delta view `"7"`, so the
    /// first sampled value behind a dictionary text is often not the
    /// pair's own; the answers' nominal constants must be the pair's own.
    /// Besides the default width, a width that takes nearly every feature
    /// puts `pigscript` atoms in most explanations.
    #[test]
    fn memo_hits_answer_like_the_stateless_engine_on_edge_values(seed in 0u64..400) {
        use perfxplain::{PerfXplain, QueryRequest};
        use perfxplain_core::pairs::PairCatalog;

        let tail_scripts =
            vec![Value::str("b.pig"), Value::Bool(true), Value::str("7"), Value::str("T")];
        for (service, log) in edge_services(seed, "memo", tail_scripts) {
            let catalog = PairCatalog::from_raw(log.job_catalog());
            let mut held: Vec<SampleKey> = Vec::new();
            for (config, text) in [ExplainConfig::default(), ExplainConfig::default().with_width(6)]
                .into_iter()
                .flat_map(|config| [(config.clone(), BLOCKED_QUERY), (config, UNBLOCKED_QUERY)])
            {
                let engine = PerfXplain::new(config.clone());
                let template = parse_query(text).unwrap();
                let pairs = spread_pairs_of_interest(&log, &template, config.sim_threshold, 4);
                for extend in [false, true] {
                    for (left, right) in &pairs {
                        let bound = BoundQuery::new(template.clone(), left.clone(), right.clone());
                        let mut request = QueryRequest::bound(bound.clone()).with_config(config.clone());
                        if extend {
                            request = request.with_despite_extension();
                        }
                        let served = service.explain(&request);
                        let fresh = if extend {
                            engine.explain_full(&log, &bound)
                        } else {
                            engine.explain(&log, &bound).map(|e| (e, bound.clone()))
                        };
                        let first_key = sample_key(&bound, &config);
                        match (&served, &fresh) {
                            (Ok(outcome), Ok((explanation, effective))) => {
                                assert_identical(&outcome.explanation, explanation)?;
                                assert_identical(&outcome.query, effective)?;
                                let poi = bound.pair_of_interest(&log, config.sim_threshold).unwrap();
                                assert_constants_are_the_pairs_own(explanation, &poi, &catalog)?;
                                prop_assert!(
                                    explanation.is_applicable(&poi),
                                    "{} does not hold for its own pair", explanation
                                );
                                let mut keys = vec![first_key];
                                if outcome.query != bound {
                                    keys.push(sample_key(&outcome.query, &config));
                                }
                                prop_assert_eq!(
                                    outcome.sample_reused,
                                    keys.iter().all(|key| held.contains(key)),
                                    "sample_reused for {:?} extend={}", (left, right), extend
                                );
                                for key in keys {
                                    if !held.contains(&key) {
                                        held.push(key);
                                    }
                                }
                            }
                            (Err(a), Err(b)) => {
                                prop_assert_eq!(a, b);
                                // The first training set was stored when it
                                // was drawn and the failure came after it.
                                let drawn = perfxplain_core::prepare_encoded_training(
                                    &log, &bound, &config,
                                ).is_ok();
                                if drawn && !held.contains(&first_key) {
                                    held.push(first_key);
                                }
                            }
                            other => prop_assert!(false, "served/fresh divergence: {:?}", other),
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics and SimButDiff on the encoded sample ≡ pair-feature maps
// ---------------------------------------------------------------------------

/// A number one ulp above `v`: equal to `v` under PXQL's numeric
/// tolerance, but not bit for bit.
fn ulp_above(v: f64) -> Value {
    Value::Num(f64::from_bits(v.to_bits() + 1))
}

/// The raw features of a metric edge log besides `duration`.
const METRIC_EDGE_FEATURES: [&str; 4] = ["inputsize", "blocksize", "pigscript", "host"];

/// The cells a metric edge log draws for `feature`: explicit `Null`,
/// numbers equal under PXQL's tolerance but not bit for bit, `0` beside
/// `-0`, `NaN`, `Bool(true)` beside `"T"` (one canonical text) and a
/// string in a numeric column.  No pool holds two values PXQL equates
/// under different canonical texts (`Bool(true)` and `"true"`), the one
/// case interning by text tells apart.  The first cell keeps the column's
/// catalog kind.
fn metric_edge_cells(feature: &str) -> Vec<Value> {
    match feature {
        "inputsize" => vec![
            Value::Num(1.0e9),
            ulp_above(1.0e9),
            Value::Num(4.0e9),
            Value::Num(0.0),
            Value::Num(-0.0),
            Value::Num(f64::NAN),
            Value::Null,
        ],
        "blocksize" => vec![
            Value::Num(64.0),
            Value::Num(1024.0),
            ulp_above(1024.0),
            Value::str("big"),
        ],
        "pigscript" => vec![
            Value::str("a.pig"),
            Value::str("b.pig"),
            Value::Bool(true),
            Value::str("T"),
            Value::Bool(false),
            Value::str("F"),
            Value::str("NaN"),
            Value::Null,
        ],
        _ => vec![Value::str("h1"), Value::str("h2")],
    }
}

/// Numbers pushed into the nominal `pigscript` column after its catalog
/// was built.
fn metric_edge_numeric_scripts() -> [Value; 5] {
    [
        Value::Num(0.0),
        Value::Num(-0.0),
        Value::Num(f64::NAN),
        Value::Num(7.0),
        ulp_above(7.0),
    ]
}

/// Job `i` of a metric edge log: each raw feature absent or drawn from its
/// pool, job 0 holding every pool's first cell, and a duration cycling
/// through 100, 104, 400 and 1000 s, so sampled pairs perform both as
/// observed (`SIM`) and as expected (`GT`).
fn metric_edge_record(seed: u64, i: u64) -> ExecutionRecord {
    let durations = [100.0, 104.0, 400.0, 1000.0];
    let mut record = ExecutionRecord::job(format!("job_{i}"))
        .with_feature("duration", durations[(i % 4) as usize]);
    for (k, feature) in METRIC_EDGE_FEATURES.iter().enumerate() {
        let h = splitmix(seed ^ (i << 8) ^ k as u64);
        let cells = metric_edge_cells(feature);
        if i == 0 {
            record.set_feature(*feature, cells[0].clone());
        } else if !h.is_multiple_of(8) {
            record.set_feature(*feature, cells[(h >> 3) as usize % cells.len()].clone());
        }
    }
    record
}

/// A metric edge log served as a live service serves it: jobs pushed and
/// catalogued, then jobs pushed whose `pigscript` cells are numbers (the
/// stale catalog keeps the column nominal), the view cached, and a tail
/// appended.  Returns the refreshed view, whose append tail holds the
/// tail's jobs, beside the log at its generation.
fn metric_edge_view(seed: u64) -> (std::sync::Arc<ColumnarLog>, ExecutionLog) {
    use perfxplain::{ExecutionKind, XplainService};

    let catalogued = 8 + splitmix(seed) % 6;
    let mut log = ExecutionLog::new();
    for i in 0..catalogued {
        log.push(metric_edge_record(seed, i));
    }
    log.rebuild_catalogs();
    let numeric_scripts = metric_edge_numeric_scripts();
    for (k, script) in numeric_scripts.iter().enumerate() {
        if !splitmix(seed ^ 0x5C1 ^ k as u64).is_multiple_of(3) {
            let mut record = metric_edge_record(seed, catalogued + k as u64);
            record.set_feature("pigscript", script.clone());
            log.push(record);
        }
    }
    let service = XplainService::new(log);
    service.view(ExecutionKind::Job);
    let first = catalogued + numeric_scripts.len() as u64;
    let tail = (first..first + 2 + splitmix(seed ^ 0x7A11) % 3)
        .map(|i| metric_edge_record(seed, i))
        .collect();
    service.append(tail).unwrap();
    (service.view(ExecutionKind::Job), service.snapshot())
}

/// Every constant a metric edge atom compares a base or diff feature
/// against: each pool's cells, the numbers of the nominal column, the
/// durations, and `Null`.
fn metric_edge_constants() -> Vec<Value> {
    let mut constants: Vec<Value> = METRIC_EDGE_FEATURES
        .iter()
        .flat_map(|feature| metric_edge_cells(feature))
        .chain(metric_edge_numeric_scripts())
        .collect();
    constants.extend([100.0, 104.0, 400.0, 1000.0].map(Value::Num));
    constants.push(Value::Null);
    constants
}

/// A random atom over a metric edge log's features and one it lacks:
/// `isSame` against `T`, `F` or `Null`, `compare` against an outcome,
/// `diff` against a pair constant or `Null`, or a base feature under `=`,
/// `!=`, `<=` or `>`.
fn metric_edge_atom(h: u64) -> Atom {
    let raw = [
        "inputsize",
        "blocksize",
        "pigscript",
        "host",
        "duration",
        "ghost",
    ][(h % 6) as usize];
    let constants = metric_edge_constants();
    let constant = |salt: u32| constants[(h >> salt) as usize % constants.len()].clone();
    let either = if (h >> 12).is_multiple_of(2) {
        Op::Eq
    } else {
        Op::Ne
    };
    match (h >> 8) % 4 {
        0 => {
            let flags = [
                Value::Bool(true),
                Value::Bool(false),
                Value::str("T"),
                Value::str("F"),
                Value::Null,
            ];
            Atom::new(
                format!("{raw}_isSame"),
                either,
                flags[(h >> 16) as usize % 5].clone(),
            )
        }
        1 => {
            let outcomes = ["LT", "SIM", "GT"];
            Atom::new(
                format!("{raw}_compare"),
                either,
                outcomes[(h >> 16) as usize % 3],
            )
        }
        2 => {
            let pair = if (h >> 14).is_multiple_of(5) {
                Value::Null
            } else {
                Value::pair(constant(16), constant(32))
            };
            Atom::new(format!("{raw}_diff"), either, pair)
        }
        _ => {
            let op = [Op::Eq, Op::Ne, Op::Le, Op::Gt][(h >> 13) as usize % 4];
            Atom::new(raw, op, constant(16))
        }
    }
}

/// `P(hit | condition)` over `maps`, each a sampled pair's full feature
/// map beside whether it performed as observed.
fn estimate_from_maps(
    maps: &[(BTreeMap<String, Value>, bool)],
    condition: &Predicate,
    hit: impl Fn(&BTreeMap<String, Value>, bool) -> bool,
) -> perfxplain::MetricEstimate {
    let satisfying: Vec<&(BTreeMap<String, Value>, bool)> = maps
        .iter()
        .filter(|(features, _)| condition.eval(features))
        .collect();
    let hits = satisfying
        .iter()
        .filter(|(features, observed)| hit(features, *observed))
        .count();
    perfxplain::MetricEstimate {
        value: (!satisfying.is_empty()).then(|| hits as f64 / satisfying.len() as f64),
        support: satisfying.len(),
    }
}

/// Relevance, precision and generality (Definitions 4–6) counted over the
/// sampled pairs' full feature maps with `Predicate::eval`.
fn quality_from_maps(
    maps: &[(BTreeMap<String, Value>, bool)],
    explanation: &perfxplain::Explanation,
) -> perfxplain::ExplanationQuality {
    let context = &explanation.despite;
    perfxplain::ExplanationQuality {
        relevance: estimate_from_maps(maps, context, |_, observed| !observed),
        precision: estimate_from_maps(
            maps,
            &context.conjoin(&explanation.because),
            |_, observed| observed,
        ),
        generality: estimate_from_maps(maps, context, |features, _| {
            explanation.because.eval(features)
        }),
    }
}

/// SimButDiff's what-if scores (Algorithm 2) counted over the pair of
/// interest's and the sampled pairs' full feature maps: a missing value
/// agrees only with a missing one.
fn what_if_from_maps(
    poi: &BTreeMap<String, Value>,
    maps: &[(BTreeMap<String, Value>, bool)],
    features: &[String],
    similarity: f64,
) -> Vec<perfxplain_core::baselines::simbutdiff::WhatIfScore> {
    let value = |map: &BTreeMap<String, Value>, feature: &str| {
        map.get(feature).cloned().unwrap_or(Value::Null)
    };
    let agrees = |map: &BTreeMap<String, Value>, feature: &str| {
        let (a, b) = (value(poi, feature), value(map, feature));
        (a.is_null() && b.is_null()) || a.pxql_eq(&b)
    };
    let threshold = (similarity * features.len() as f64).ceil() as usize;
    let similar: Vec<&(BTreeMap<String, Value>, bool)> = maps
        .iter()
        .filter(|(map, _)| features.iter().filter(|f| agrees(map, f)).count() >= threshold)
        .collect();
    let mut scores: Vec<_> = features
        .iter()
        .map(|feature| {
            let disagreeing: Vec<bool> = similar
                .iter()
                .filter(|(map, _)| !agrees(map, feature))
                .map(|(_, observed)| *observed)
                .collect();
            perfxplain_core::baselines::simbutdiff::WhatIfScore {
                feature: feature.clone(),
                disagreeing: disagreeing.len(),
                expected: disagreeing.iter().filter(|observed| !**observed).count(),
            }
        })
        .collect();
    scores.sort_by(|a, b| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.disagreeing.cmp(&a.disagreeing))
    });
    scores
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Relevance, precision and generality over a drawn sample, and
    /// SimButDiff's what-if scores, equal the counts taken over every
    /// sampled pair's full feature map with `Predicate::eval`.  The
    /// explanations mix every pair-feature group and operator over the
    /// metric edge logs: missing cells, explicit `Null`, `NaN`, `0` beside
    /// `-0`, `Bool(true)` beside `"T"`, numbers in a nominal column and a
    /// string in a numeric one, numbers within PXQL's tolerance, and rows
    /// in a service view's append tail.
    #[test]
    fn metrics_and_what_if_scores_match_the_pair_feature_maps(seed in 0u64..1000) {
        use perfxplain::{Explanation, SimButDiff};

        let (view, log) = metric_edge_view(seed);
        prop_assert!(view.tail_rows() > 0, "the view has no append tail");
        let config = ExplainConfig {
            sim_threshold: [0.1, 0.3][(seed % 2) as usize],
            ..ExplainConfig::default()
        };
        let sim = config.sim_threshold;
        let query =
            parse_query("OBSERVED duration_compare = SIM\nEXPECTED duration_compare = GT").unwrap();
        let bound = BoundQuery::new(query, "job_0", "job_1");
        let training = perfxplain_core::training::prepare_encoded_training_in(
            &log, view.clone(), &bound, &config,
        )
        .unwrap();
        let catalog = log.job_catalog();
        let record = |row: usize| &log.records()[view.position(row)];
        let maps: Vec<(BTreeMap<String, Value>, bool)> = training
            .pairs
            .iter()
            .zip(training.labels.iter())
            .map(|(&(l, r), &observed)| {
                (compute_pair_features(catalog, record(l), record(r), sim), observed)
            })
            .collect();

        for k in 0..8u64 {
            let h = splitmix(seed ^ (k << 40));
            let clause = |salt: u64, width: u64| -> Predicate {
                (0..width).map(|j| metric_edge_atom(splitmix(h ^ salt ^ (j << 20)))).collect()
            };
            let explanation = Explanation::new(clause(1, h % 3), clause(2, (h >> 2) % 4));
            prop_assert_eq!(
                perfxplain::assess(&training, &explanation),
                quality_from_maps(&maps, &explanation),
                "{}", explanation
            );
        }

        let rows = view.num_rows();
        let h = splitmix(seed ^ 0x51B);
        let left = (h % rows as u64) as usize;
        let right = (left + 1 + (h >> 20) as usize % (rows - 1)) % rows;
        let features: Vec<String> = catalog
            .names()
            .map(|name| format!("{name}_isSame"))
            .chain(["ghost_isSame".to_string()])
            .collect();
        let similarity = (seed % 5) as f64 / 4.0;
        let baseline = SimButDiff::new(ExplainConfig {
            simbutdiff_similarity: similarity,
            ..config.clone()
        });
        let poi = PairExample::build(catalog, record(left), record(right), sim);
        prop_assert_eq!(
            baseline.what_if_scores(&training, (left, right), &features),
            what_if_from_maps(&poi.features, &maps, &features, similarity)
        );
    }
}

// ---------------------------------------------------------------------------
// Sweep split finder ≡ naive oracle, and trainer-rewrite invariance
// ---------------------------------------------------------------------------

use perfxplain::mlcore::{
    best_split_for_attribute, best_split_for_attribute_filtered, percentile_ranks, relief_weights,
    AttrValue, Attribute, Dataset, ReliefConfig, SplitCandidate,
};
use perfxplain_core::bridge::DatasetBridge;

/// SplitMix64 — the deterministic cell/label derivation behind the random
/// datasets below.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An adversarial dataset for the split search: numeric/nominal mix, missing
/// cells, NaN, ±infinity, schema-drift cells, heavy value ties, and values
/// within the equality tolerance of each other (negative zero, adjacent
/// representable doubles, sub-epsilon magnitudes) — everything that makes
/// the sweep's prefix/band bookkeeping earn its keep.  A seeded share of
/// the columns has no present cell (only `Missing` and NaN), and another
/// holds a single id (a single value in a numeric column) beside missing
/// cells: the absent and constant shapes of the column-major storage.
/// Returns the dataset plus a derived pair-of-interest row for
/// applicability filters, drawn from every cell the columns could hold.
fn build_split_dataset(
    schema_seed: u64,
    num_attrs: usize,
    row_seeds: &[u64],
    poi_seed: u64,
) -> (Dataset, Vec<AttrValue>) {
    let pool = [
        0.0,
        -0.0,
        1.0,
        1.0 + f64::EPSILON,
        1.5,
        -2.0,
        1.0e9,
        1.0e-17,
        2.0e-17,
        -1.0e-17,
        600.0,
        5.0,
    ];
    let numeric = |a: usize| (schema_seed >> a) & 1 == 0;
    let attributes = (0..num_attrs)
        .map(|a| {
            if numeric(a) {
                Attribute::numeric(format!("n{a}"))
            } else {
                Attribute::nominal(format!("c{a}"))
            }
        })
        .collect();
    let mut dataset = Dataset::new(attributes);
    for a in 0..num_attrs {
        if !numeric(a) {
            for v in 0..4 {
                dataset.attribute_mut(a).dictionary.intern(&format!("v{v}"));
            }
        }
    }
    let cell = |h: u64, numeric: bool| -> AttrValue {
        if numeric {
            match h % 16 {
                0 | 1 => AttrValue::Missing,
                2 => AttrValue::Num(f64::NAN),
                3 => AttrValue::Num(f64::INFINITY),
                4 => AttrValue::Num(f64::NEG_INFINITY),
                5 => AttrValue::Nom(0), // schema drift: nominal cell in a numeric column
                _ => AttrValue::Num(pool[(h >> 8) as usize % pool.len()]),
            }
        } else {
            match h % 8 {
                0 => AttrValue::Missing,
                1 => AttrValue::Num(2.5), // schema drift: numeric cell in a nominal column
                _ => AttrValue::Nom((h >> 8) as u32 % 4),
            }
        }
    };
    let shape = |a: usize| (schema_seed >> (32 + 2 * a)) & 3;
    let single = (schema_seed >> 48) as usize;
    let shaped = |h: u64, a: usize| -> AttrValue {
        match shape(a) {
            0 if h & 1 == 0 => AttrValue::Missing,
            0 => AttrValue::Num(f64::NAN),
            1 if h.is_multiple_of(3) => AttrValue::Missing,
            1 if numeric(a) => AttrValue::Num(pool[single % pool.len()]),
            1 => AttrValue::Nom(single as u32 % 4),
            _ => cell(h, numeric(a)),
        }
    };
    for &seed in row_seeds {
        let row: Vec<AttrValue> = (0..num_attrs)
            .map(|a| shaped(splitmix(seed.wrapping_add(a as u64)), a))
            .collect();
        dataset.push(row, splitmix(seed ^ 0xAB) & 1 == 0);
    }
    let poi: Vec<AttrValue> = (0..num_attrs)
        .map(|a| cell(splitmix(poi_seed.wrapping_add(a as u64)), numeric(a)))
        .collect();
    (dataset, poi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sweep-based split finder returns a `SplitCandidate` identical —
    /// atom, gain, inside/outside counts, tie-breaks included — to the
    /// retained naive oracle, unfiltered and under the applicability
    /// filter, over full and subset index lists.
    #[test]
    fn sweep_split_finder_matches_the_naive_oracle(
        schema_seed in any::<u64>(),
        num_attrs in 1usize..4,
        row_seeds in proptest::collection::vec(any::<u64>(), 2..60),
        poi_seed in any::<u64>(),
    ) {
        let (dataset, poi) =
            build_split_dataset(schema_seed, num_attrs, &row_seeds, poi_seed);
        let all: Vec<usize> = (0..dataset.len()).collect();
        let subset: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| !splitmix(poi_seed ^ (i as u64)).is_multiple_of(3))
            .collect();
        for indices in [&all, &subset] {
            for (attribute, &poi_value) in poi.iter().enumerate() {
                prop_assert_eq!(
                    best_split_for_attribute(&dataset, indices, attribute),
                    mlcore::oracle::best_split_for_attribute(&dataset, indices, attribute),
                    "unfiltered attribute {} diverged", attribute
                );
                let sweep = best_split_for_attribute_filtered(
                    &dataset, indices, attribute,
                    |atom| atom.matches_value(poi_value),
                );
                let naive = mlcore::oracle::best_split_for_attribute_filtered(
                    &dataset, indices, attribute,
                    |atom| atom.matches_value(poi_value),
                );
                prop_assert_eq!(sweep, naive, "filtered attribute {} diverged", attribute);
            }
        }
    }

    /// The columnar, fanned-out Relief returns weights bit-identical to the
    /// retained row-at-a-time oracle on the same adversarial datasets.
    #[test]
    fn columnar_relief_matches_the_naive_oracle(
        schema_seed in any::<u64>(),
        num_attrs in 1usize..4,
        row_seeds in proptest::collection::vec(any::<u64>(), 2..60),
        iterations in 1usize..40,
    ) {
        let (dataset, _) = build_split_dataset(schema_seed, num_attrs, &row_seeds, 7);
        let config = ReliefConfig { iterations, seed: schema_seed };
        prop_assert_eq!(
            relief_weights(&dataset, config),
            mlcore::oracle::relief_weights(&dataset, config),
        );
    }
}

/// The greedy clause loop of Algorithm 1, reimplemented against the *naive*
/// split oracle: what `PerfXplain` produced before the sweep rewrite.
fn oracle_because_clause(
    bridge: &DatasetBridge,
    config: &ExplainConfig,
    width: usize,
) -> Predicate {
    let dataset = bridge.dataset();
    if dataset.is_empty() || width == 0 {
        return Predicate::always_true();
    }
    let mut atoms: Vec<Atom> = Vec::new();
    let mut current: Vec<usize> = (0..dataset.len()).collect();
    for _ in 0..width {
        if current.is_empty() {
            break;
        }
        let mut candidates: Vec<(usize, SplitCandidate)> = Vec::new();
        for attr in 0..bridge.num_attributes() {
            let poi_value = bridge.poi_value(attr);
            if poi_value.is_missing() || atoms.iter().any(|a| a.feature == bridge.attr_name(attr)) {
                continue;
            }
            if let Some(candidate) =
                mlcore::oracle::best_split_for_attribute_filtered(dataset, &current, attr, |atom| {
                    atom.matches_value(poi_value)
                })
            {
                candidates.push((attr, candidate));
            }
        }
        if candidates.is_empty() {
            break;
        }
        let precisions: Vec<f64> = candidates
            .iter()
            .map(|(_, c)| {
                let total = c.inside.total() as f64;
                if total == 0.0 {
                    0.0
                } else {
                    c.inside.positive as f64 / total
                }
            })
            .collect();
        let generalities: Vec<f64> = candidates
            .iter()
            .map(|(_, c)| c.inside.total() as f64 / current.len() as f64)
            .collect();
        let (precision_scores, generality_scores) = if config.normalize_scores {
            (
                percentile_ranks(&precisions),
                percentile_ranks(&generalities),
            )
        } else {
            (precisions.clone(), generalities.clone())
        };
        let w = config.precision_weight;
        let mut best_index = 0usize;
        let mut best_score = f64::MIN;
        for i in 0..candidates.len() {
            let score = w * precision_scores[i] + (1.0 - w) * generality_scores[i];
            let better = score > best_score + 1e-12
                || ((score - best_score).abs() <= 1e-12 && precisions[i] > precisions[best_index]);
            if better {
                best_score = score;
                best_index = i;
            }
        }
        let (_, winner) = &candidates[best_index];
        let atom = bridge.atom_to_pxql(&winner.atom);
        current.retain(|&row| winner.atom.matches_row(dataset, row));
        atoms.push(atom);
    }
    Predicate::from_atoms(atoms)
}

/// The training dataset `PerfXplain::explain` grows its because clause over,
/// the explanation it gives, and the one the greedy loop re-run against the
/// naive oracle gives over the same dataset.  `None` when the query fails
/// its preconditions or has no training set.
fn sweep_and_oracle_explanations(
    log: &ExecutionLog,
    bound: &BoundQuery,
    config: &ExplainConfig,
) -> Option<(
    DatasetBridge,
    perfxplain::Explanation,
    perfxplain::Explanation,
)> {
    use perfxplain_core::pairs::PairCatalog;

    bound.verify_preconditions(log, config.sim_threshold).ok()?;
    let encoded = perfxplain_core::training::prepare_encoded_training(log, bound, config).ok()?;
    let catalog = PairCatalog::from_raw(log.job_catalog())
        .restrict_to_groups(config.feature_level.allowed_groups());
    let excluded = perfxplain_core::query::excluded_raw_features(bound, config);
    let poi_rows = encoded.poi_rows(bound).expect("poi rows exist");
    let bridge = DatasetBridge::encode_from_view(
        &encoded,
        poi_rows,
        &catalog,
        &excluded,
        config.sim_threshold,
    );
    let expected =
        perfxplain::Explanation::because_only(oracle_because_clause(&bridge, config, config.width));
    let actual = perfxplain::PerfXplain::new(config.clone())
        .explain(log, bound)
        .unwrap();
    Some((bridge, actual, expected))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// End to end: `PerfXplain::explain` over random logs and structurally
    /// different queries produces exactly the explanation the pre-sweep
    /// trainer produced (the greedy loop re-run against the naive oracle).
    #[test]
    fn explain_output_is_unchanged_by_the_sweep_trainer(seed in 0u64..200) {
        let log = random_log(seed);
        let config = uncapped_config();
        for query in query_pool() {
            let bound = BoundQuery::new(query, "job_0", "job_1");
            if let Some((_, actual, expected)) =
                sweep_and_oracle_explanations(&log, &bound, &config)
            {
                prop_assert_eq!(actual, expected, "explanation diverged for seed {}", seed);
            }
        }
    }
}

/// The same cross-check on a realistic training set, far past the
/// proptests' 60 rows: the blocked log with continuous group metrics, at
/// the default config.  Relief, behind the RuleOfThumb baseline, must match
/// its oracle bit for bit on the same dataset.
#[test]
fn the_sweep_trainer_matches_the_naive_oracle_on_a_blocked_log() {
    let log = perfxplain_bench::blocked_log_with_group_metrics(20_000, 10, 1, 3);
    let config = ExplainConfig::default();
    let query = parse_query(perfxplain_bench::BLOCKED_QUERY).unwrap();
    let bound = BoundQuery::new(query, "job_2", "job_0");
    let (bridge, actual, expected) = sweep_and_oracle_explanations(&log, &bound, &config)
        .expect("the blocked query has a training set");
    let dataset = bridge.dataset();
    assert_eq!((dataset.len(), dataset.num_attributes()), (1_908, 28));
    assert!(actual.width() >= 1, "empty explanation");
    assert_eq!(actual, expected);

    let relief = ReliefConfig {
        iterations: config.relief_iterations,
        seed: config.seed,
    };
    assert_eq!(
        relief_weights(dataset, relief),
        mlcore::oracle::relief_weights(dataset, relief),
    );
}

/// Regression: a single NaN feature cell used to panic the split search
/// (`sort_by(..).expect("NaN feature value")`) and therefore the whole
/// service.  NaN now behaves exactly like a missing value everywhere in the
/// trainers.
#[test]
fn nan_feature_values_do_not_panic_the_pipeline() {
    let clean = random_log(3);
    let mut log = ExecutionLog::new();
    for (i, record) in clean.records().iter().enumerate() {
        let mut record = record.clone();
        if i % 3 == 0 {
            record.set_feature("iosortfactor", f64::NAN);
        }
        if i % 4 == 0 {
            record.set_feature("duration", f64::NAN);
        }
        log.push(record);
    }
    log.rebuild_catalogs();

    let config = uncapped_config();
    let engine = perfxplain::PerfXplain::new(config.clone());
    for query in query_pool() {
        let bound = BoundQuery::new(query, "job_1", "job_2");
        // Ok or a typed error — never a panic.
        let _ = engine.explain(&log, &bound);
        let _ = perfxplain::RuleOfThumb::new(config.clone()).explain(&log, &bound);
    }

    // The mlcore trainers treat the NaN cells exactly like Missing ones.
    let mut with_nan = Dataset::new(vec![Attribute::numeric("x")]);
    let mut with_missing = Dataset::new(vec![Attribute::numeric("x")]);
    for i in 0..20 {
        let label = i % 2 == 0;
        if i % 5 == 0 {
            with_nan.push(vec![AttrValue::Num(f64::NAN)], label);
            with_missing.push(vec![AttrValue::Missing], label);
        } else {
            with_nan.push(vec![AttrValue::Num(i as f64)], label);
            with_missing.push(vec![AttrValue::Num(i as f64)], label);
        }
    }
    let indices: Vec<usize> = (0..with_nan.len()).collect();
    assert_eq!(
        best_split_for_attribute(&with_nan, &indices, 0),
        best_split_for_attribute(&with_missing, &indices, 0),
    );
    assert_eq!(
        relief_weights(&with_nan, ReliefConfig::default()),
        relief_weights(&with_missing, ReliefConfig::default()),
    );
}

// ---------------------------------------------------------------------------
// Snapshot-store equivalence properties
// ---------------------------------------------------------------------------

/// [`random_log`] plus task records, so both execution kinds exercise the
/// snapshot round trip.
fn random_mixed_log(seed: u64) -> ExecutionLog {
    let mut log = random_log(seed);
    let jobs: Vec<String> = log.jobs().map(|j| j.id.clone()).collect();
    for (i, job_id) in jobs.iter().enumerate() {
        if i % 3 == 0 {
            log.push(
                ExecutionRecord::task(format!("task_{i}"), job_id.clone())
                    .with_feature("tasktype", if i % 2 == 0 { "MAP" } else { "REDUCE" })
                    .with_feature("duration", 5.0 + i as f64),
            );
        }
    }
    log.rebuild_catalogs();
    log
}

/// A per-case scratch directory under the system temp dir.
fn snapshot_dir(tag: &str, a: u64, b: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pxsnap_prop_{}_{tag}_{a}_{b}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `open(persist(log)).into_views()` is bit-identical to
    /// `ColumnarLog::build_sharded(log, ..)` for arbitrary logs and shard
    /// counts, for both execution kinds, and the reopened log equals the
    /// original.
    #[test]
    fn snapshot_views_are_bit_identical_to_the_sharded_build(
        seed in 0u64..150,
        shards in 1usize..12,
    ) {
        use perfxplain::snapshot;
        use perfxplain::ExecutionKind;
        use perfxplain_core::columnar::ColumnarLog;

        let log = random_mixed_log(seed);
        let dir = snapshot_dir("views", seed, shards);
        snapshot::persist(&log, &dir, shards).unwrap();
        let snap = snapshot::open(&dir).unwrap();

        prop_assert_eq!(&snap.to_log(), &log);
        // The zero-copy path adopts the columns straight from the decoded
        // segments.
        let views = snap.into_views();
        prop_assert_eq!(&views.log, &log);
        for (kind, from_snapshot) in [
            (ExecutionKind::Job, &views.job),
            (ExecutionKind::Task, &views.task),
        ] {
            prop_assert_eq!(from_snapshot, &ColumnarLog::build_sharded(&log, kind, shards));
            prop_assert_eq!(from_snapshot, &ColumnarLog::build(&log, kind));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Incremental re-ingest with one dirty shard re-encodes exactly one
    /// segment; every other shard is served from disk, with its manifest
    /// entry — content fingerprint included — carried forward bit-for-bit.
    /// The synced snapshot equals a from-scratch serial ingest of the
    /// mutated records.
    #[test]
    fn incremental_sync_reencodes_exactly_the_dirty_shard(
        seed in 0u64..100,
        shard_count in 2usize..6,
        dirty_pick in 0usize..64,
    ) {
        use perfxplain::snapshot::{self, RecordShard, ShardInput};
        use perfxplain::ExecutionKind;
        use perfxplain_core::columnar::ColumnarLog;

        let log = random_mixed_log(seed);
        let records = log.records().to_vec();
        let chunk_size = records.len().div_ceil(shard_count).max(1);
        let chunks: Vec<Vec<ExecutionRecord>> =
            records.chunks(chunk_size).map(<[_]>::to_vec).collect();
        let dirty = dirty_pick % chunks.len();

        let dir = snapshot_dir("sync", seed, shard_count * 100 + dirty);
        let shards: Vec<RecordShard> = chunks
            .iter()
            .enumerate()
            .map(|(i, records)| RecordShard {
                records: records.clone(),
                source_fingerprint: Some(10_000 + i as u64),
            })
            .collect();
        snapshot::persist_shards(&dir, shards).unwrap();
        let before = perfxplain::SnapshotManifest::load(&dir).unwrap();

        // Mutate one numeric feature in the dirty shard: the catalogs stay
        // stable, so nothing else may re-encode.
        let mut mutated = chunks.clone();
        mutated[dirty][0].set_feature("duration", 123_456.0);
        let inputs: Vec<ShardInput> = mutated
            .iter()
            .enumerate()
            .map(|(i, records)| {
                if i == dirty {
                    ShardInput::Fresh(RecordShard {
                        records: records.clone(),
                        source_fingerprint: Some(777),
                    })
                } else {
                    ShardInput::Unchanged { source_fingerprint: 10_000 + i as u64 }
                }
            })
            .collect();
        let report = snapshot::sync(&dir, inputs).unwrap();
        prop_assert_eq!(report.shards_encoded, 1);
        prop_assert_eq!(report.shards_reused, chunks.len() - 1);
        prop_assert!(!report.catalog_changed);
        for (i, (old_entry, new_entry)) in
            before.shards.iter().zip(&report.manifest.shards).enumerate()
        {
            if i != dirty {
                prop_assert_eq!(old_entry, new_entry, "clean shard {} was touched", i);
            } else {
                prop_assert_eq!(new_entry.source_fingerprint, Some(777));
            }
        }

        // Equivalence with a from-scratch serial ingest of the mutated
        // records.
        let mut expected = ExecutionLog::new();
        for record in mutated.iter().flatten() {
            expected.push(record.clone());
        }
        expected.rebuild_catalogs();
        let views = snapshot::open(&dir).unwrap().into_views();
        prop_assert_eq!(&views.log, &expected);
        prop_assert_eq!(views.job, ColumnarLog::build(&expected, ExecutionKind::Job));
        prop_assert_eq!(views.task, ColumnarLog::build(&expected, ExecutionKind::Task));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Segment codec round trips (bit-exact)
// ---------------------------------------------------------------------------

/// Adversarial numeric payloads for the v2 stream codec: non-finite values
/// and signed zero (must force the raw fallback), extreme magnitudes (must
/// not overflow the frame-of-reference / delta arithmetic), small integral
/// values (eligible for bit-packing) and arbitrary doubles.
fn arb_adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::MIN_POSITIVE),
        Just(42.0f64),
        any::<f64>(),
        any::<u32>().prop_map(|v| f64::from(v) - f64::from(u32::MAX / 2)),
    ]
}

/// One adversarial cell for a column whose nominal dictionary has
/// `dict_len` entries (`dict_len == 0` means the column is purely numeric).
fn arb_adversarial_cell(dict_len: u32) -> BoxedStrategy<perfxplain::mlcore::AttrValue> {
    use perfxplain::mlcore::AttrValue;
    if dict_len == 0 {
        prop_oneof![
            Just(AttrValue::Missing),
            arb_adversarial_f64().prop_map(AttrValue::Num),
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(AttrValue::Missing),
            arb_adversarial_f64().prop_map(AttrValue::Num),
            (0u32..dict_len).prop_map(AttrValue::Nom),
        ]
        .boxed()
    }
}

/// Bitwise equality for cells: `Num` payloads compare by their IEEE-754
/// representation, so NaN == NaN and -0.0 != +0.0.
fn cells_bit_equal(a: &perfxplain::mlcore::AttrValue, b: &perfxplain::mlcore::AttrValue) -> bool {
    use perfxplain::mlcore::AttrValue;
    match (a, b) {
        (AttrValue::Missing, AttrValue::Missing) => true,
        (AttrValue::Num(x), AttrValue::Num(y)) => x.to_bits() == y.to_bits(),
        (AttrValue::Nom(x), AttrValue::Nom(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-packing at every width (0..=64) is the identity on values that
    /// fit the width — including the empty slice and a single value.
    #[test]
    fn packed_bits_round_trip_at_every_width(
        width in 0u32..65,
        raw in proptest::collection::vec(any::<u64>(), 0..50),
    ) {
        use perfxplain::mlcore::{ByteReader, ByteWriter};

        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let values: Vec<u64> = raw.iter().map(|v| v & mask).collect();
        let mut writer = ByteWriter::new();
        writer.put_packed(&values, width);
        let mut reader = ByteReader::new(writer.as_bytes());
        let decoded = reader.get_packed(values.len(), width).unwrap();
        prop_assert_eq!(decoded, values);
        prop_assert!(reader.is_exhausted());
    }

    /// The numeric stream codec (raw / frame-of-reference / delta, chosen
    /// per stream) is bit-exact over adversarial inputs: NaN payloads,
    /// infinities, signed zero and extreme magnitudes all survive.
    #[test]
    fn f64_stream_round_trips_bit_exactly(
        values in proptest::collection::vec(arb_adversarial_f64(), 0..60),
    ) {
        use perfxplain::mlcore::{decode_f64_stream, encode_f64_stream, ByteReader, ByteWriter};

        let mut writer = ByteWriter::new();
        encode_f64_stream(&mut writer, &values);
        let mut reader = ByteReader::new(writer.as_bytes());
        let decoded = decode_f64_stream(&mut reader, values.len()).unwrap();
        prop_assert_eq!(decoded.len(), values.len());
        for (got, want) in decoded.iter().zip(&values) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
        prop_assert!(reader.is_exhausted());
    }

    /// The whole v2 column-segment format is the identity on adversarial
    /// stores: dictionary-of-1 nominals (zero-bit packing), mixed
    /// numeric/nominal columns, all-missing columns, zero-row stores, and
    /// every pathological double.
    #[test]
    fn column_segments_round_trip_bit_exactly(
        dict_len in 1u32..4,
        rows in 0usize..40,
        cell_seed in any::<u64>(),
    ) {
        use perfxplain::mlcore::{Attribute, ByteReader, ByteWriter, ColumnStore};

        let mut nominal = Attribute::nominal("script");
        for i in 0..dict_len {
            nominal.dictionary.intern(&format!("script_{i}.pig"));
        }
        let attributes = vec![
            Attribute::numeric("metric"),
            nominal,
            Attribute::numeric("all_missing"),
        ];

        // Deterministically sample one cell strategy per (column, row) from
        // the seed, so the store is reproducible from the proptest case.
        let mut rng = proptest::test_rng(cell_seed);
        let numeric_cells = arb_adversarial_cell(0);
        let nominal_cells = arb_adversarial_cell(dict_len);
        let columns: Vec<Vec<perfxplain::mlcore::AttrValue>> = vec![
            (0..rows).map(|_| numeric_cells.generate(&mut rng)).collect(),
            (0..rows).map(|_| nominal_cells.generate(&mut rng)).collect(),
            vec![perfxplain::mlcore::AttrValue::Missing; rows],
        ];
        let store = ColumnStore::from_columns(attributes, columns);

        let mut writer = ByteWriter::new();
        store.encode_binary(&mut writer);
        let mut reader = ByteReader::new(writer.as_bytes());
        let decoded = ColumnStore::decode_binary(&mut reader).unwrap();
        prop_assert!(reader.is_exhausted());

        prop_assert_eq!(decoded.num_rows(), store.num_rows());
        prop_assert_eq!(decoded.num_columns(), store.num_columns());
        prop_assert_eq!(decoded.attributes(), store.attributes());
        for col in 0..store.num_columns() {
            for row in 0..store.num_rows() {
                let (want, got) = (store.value(row, col), decoded.value(row, col));
                prop_assert!(
                    cells_bit_equal(&want, &got),
                    "cell ({}, {}) decoded as {:?}, expected {:?}",
                    row, col, got, want
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The log's id index
// ---------------------------------------------------------------------------

/// Ids the index test draws from: every id is reused, within a kind and
/// across kinds.
const INDEX_IDS: [&str; 5] = ["x0", "x1", "x2", "x3", "x4"];

/// One record for the index test: a job or a task (whose parent is another
/// pool id) with an id from [`INDEX_IDS`].  Every record carries the same
/// features, so an append never changes a catalog.
fn index_record(draw: u64) -> ExecutionRecord {
    let id = INDEX_IDS[(draw % 5) as usize];
    let record = if (draw >> 8).is_multiple_of(2) {
        ExecutionRecord::job(id)
    } else {
        ExecutionRecord::task(id, INDEX_IDS[((draw >> 16) % 5) as usize])
    };
    record
        .with_feature("duration", ((draw >> 24) % 1000) as f64)
        .with_feature("script", ["a.pig", "b.pig"][((draw >> 40) % 2) as usize])
}

/// Checks the log's id index and both kinds' views against a scan: `get`
/// returns the last record with the id, and `row_of` the view row at that
/// record's position, or `None` when the record is of the other kind.
/// `delta` holds views refreshed through the append tail, checked the
/// same way.
fn check_id_index(
    log: &ExecutionLog,
    delta: &[ColumnarLog],
    step: usize,
) -> Result<(), TestCaseError> {
    use perfxplain::ExecutionKind;
    for id in INDEX_IDS.iter().chain(&["unknown"]) {
        let scanned = log.records().iter().rposition(|r| r.id == *id);
        let found = match (log.get(id), scanned) {
            (None, None) => true,
            (Some(record), Some(at)) => std::ptr::eq(record, &log.records()[at]),
            _ => false,
        };
        prop_assert!(found, "get({}) at step {} is not the last record", id, step);
        let fresh =
            [ExecutionKind::Job, ExecutionKind::Task].map(|kind| ColumnarLog::build(log, kind));
        for view in fresh.iter().chain(delta) {
            let expected = scanned
                .filter(|&at| log.records()[at].kind == view.kind())
                .and_then(|at| (0..view.num_rows()).find(|&row| view.position(row) == at));
            prop_assert_eq!(
                view.row_of(log, id),
                expected,
                "row_of({}) in the {} view at step {}",
                id,
                view.kind().as_str(),
                step
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log's one id index equals a scan after every mutation and
    /// constructor a log can go through: `push`, `append`, `extend`,
    /// `from_shards`, `restrict_to_jobs` and a JSON round trip.  Views built fresh, and views refreshed through the append
    /// tail, resolve ids through it to the same record.
    #[test]
    fn the_log_id_index_equals_a_scan_after_every_mutation(seed in 0u64..1_000_000) {
        use perfxplain::ExecutionKind;
        let mut state = seed;
        let mut draw = move || {
            state = state.wrapping_add(1);
            splitmix(state.wrapping_mul(0x2545_F491_4F6C_DD1D))
        };
        let mut log = ExecutionLog::new();
        for step in 0..16 {
            let batch = |draw: &mut dyn FnMut() -> u64| -> Vec<ExecutionRecord> {
                let len = draw() % 4;
                (0..len).map(|_| index_record(draw())).collect()
            };
            let shard = |records: Vec<ExecutionRecord>| {
                let mut shard = ExecutionLog::new();
                for record in records {
                    shard.push(record);
                }
                shard.rebuild_catalogs();
                shard
            };
            let views = [ExecutionKind::Job, ExecutionKind::Task].map(|kind| ColumnarLog::build(&log, kind));
            let (covered, generation) = (log.len(), log.generation());
            let mut delta = Vec::new();
            match draw() % 6 {
                0 => log.push(index_record(draw())),
                1 => {
                    log.append(batch(&mut draw));
                    for view in &views {
                        if log.rewrite_generation(view.kind()) <= generation {
                            delta.push(view.with_appended(&log, covered));
                        }
                    }
                }
                2 => log.extend(shard(batch(&mut draw))),
                3 => {
                    let other = shard(batch(&mut draw));
                    log = ExecutionLog::from_shards(vec![log, other]);
                }
                4 => {
                    let keep: Vec<&str> =
                        INDEX_IDS.iter().copied().filter(|_| draw() % 3 != 0).collect();
                    log = log.restrict_to_jobs(&keep);
                }
                _ => log = ExecutionLog::from_json(&log.to_json().unwrap()).unwrap(),
            }
            check_id_index(&log, &delta, step)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Records against a map model
// ---------------------------------------------------------------------------

/// Feature names of the record model; several share a prefix (`d` < `du`
/// < `dur` < …), so a name lands before, between and after its prefixes.
const MODEL_NAMES: [&str; 8] = ["a", "a_b", "d", "du", "dur", "duration", "durations", "z"];

/// Every feature value shape the JSON writer takes (no NaN), with `-0.0`
/// and values whose canonical texts collide (`true` and `"T"`, `false` and
/// `"F"`), which a snapshot stores as exceptions.
fn arb_model_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<f64>().prop_map(Value::Num),
        prop_oneof![Just(-0.0), Just(1.0)].prop_map(Value::Num),
        prop_oneof![Just("a.pig"), Just("T"), Just("F"), Just("")].prop_map(Value::str),
        (0usize..3, any::<f64>())
            .prop_map(|(a, b)| Value::pair(Value::str(format!("p{a}")), Value::Num(b))),
    ]
    .boxed()
}

/// One record: task or job, then `(name, builder style, value)` steps.
type RecordSpec = (bool, Vec<(usize, bool, Value)>);

fn arb_record_spec() -> impl Strategy<Value = RecordSpec> {
    (
        any::<bool>(),
        proptest::collection::vec(
            (0usize..MODEL_NAMES.len(), any::<bool>(), arb_model_value()),
            0..12,
        ),
    )
}

fn model_record(i: usize, task: bool) -> ExecutionRecord {
    if task {
        ExecutionRecord::task(format!("task_{i}"), "job_0")
    } else {
        ExecutionRecord::job(format!("job_{i}"))
    }
}

/// Every read of `record` agrees with the map `model`.
fn check_against_model(
    record: &ExecutionRecord,
    model: &BTreeMap<String, Value>,
) -> Result<(), TestCaseError> {
    for name in MODEL_NAMES {
        let held = model.get(name);
        prop_assert_eq!(record.feature(name), held.cloned().unwrap_or(Value::Null));
        prop_assert_eq!(FeatureSource::feature(record, name), held.cloned());
    }
    let expected: Vec<(&str, &Value)> = model.iter().map(|(n, v)| (n.as_str(), v)).collect();
    prop_assert_eq!(record.features().collect::<Vec<_>>(), expected);
    prop_assert_eq!(record.features().len(), model.len());
    prop_assert_eq!(
        record.duration(),
        model.get(DURATION_FEATURE).and_then(Value::as_num)
    );
    Ok(())
}

/// The catalog a map model implies: numeric once any value is a number,
/// nominal otherwise.
fn model_catalog<'a>(models: impl Iterator<Item = &'a BTreeMap<String, Value>>) -> FeatureCatalog {
    let mut kinds: BTreeMap<&str, FeatureKind> = BTreeMap::new();
    for model in models {
        for (name, value) in model {
            let kind = kinds.entry(name).or_insert(FeatureKind::Nominal);
            if matches!(value, Value::Num(_)) {
                *kind = FeatureKind::Numeric;
            }
        }
    }
    FeatureCatalog::from_defs(
        kinds
            .into_iter()
            .map(|(name, kind)| FeatureDef {
                name: name.to_string(),
                kind,
            })
            .collect(),
    )
}

static MODEL_CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Records built by any sequence of `with_feature` / `set_feature`
    /// read like a `BTreeMap` given the same steps, whatever the order the
    /// features were set in.  A record in a log, whose feature names the
    /// log shares, prints and compares like its builder copy, and comes
    /// back with the same `Debug` text (so `-0.0` stays `-0.0`) from JSON,
    /// from a journal frame and from a snapshot's segments.  Catalog
    /// inference over the records equals the model's.
    #[test]
    fn records_read_like_a_map_model(specs in proptest::collection::vec(arb_record_spec(), 1..6)) {
        use perfxplain::snapshot::{self, Journal};
        let mut log = ExecutionLog::new();
        let mut builders = Vec::new();
        let mut models = Vec::new();
        for (i, (task, steps)) in specs.iter().enumerate() {
            let mut record = model_record(i, *task);
            let mut model = BTreeMap::new();
            for (name, builder_style, value) in steps {
                let name = MODEL_NAMES[*name];
                if *builder_style {
                    record = record.with_feature(name, value.clone());
                } else {
                    record.set_feature(name, value.clone());
                }
                model.insert(name.to_string(), value.clone());
            }
            check_against_model(&record, &model)?;
            // The final values, set in descending name order, make an
            // equal record.
            let mut reversed = model_record(i, *task);
            for (name, value) in model.iter().rev() {
                reversed.set_feature(name.as_str(), value.clone());
            }
            prop_assert_eq!(&reversed, &record);
            log.push(record.clone());
            builders.push(record);
            models.push(model);
        }
        log.rebuild_catalogs();
        for ((logged, builder), model) in log.records().iter().zip(&builders).zip(&models) {
            prop_assert_eq!(format!("{logged:?}"), format!("{builder:?}"));
            prop_assert_eq!(logged, builder);
            check_against_model(logged, model)?;
        }

        for kind in [ExecutionKind::Job, ExecutionKind::Task] {
            let of_kind = || {
                builders
                    .iter()
                    .zip(&models)
                    .filter(move |(record, _)| record.kind == kind)
            };
            let expected = model_catalog(of_kind().map(|(_, model)| model));
            prop_assert_eq!(log.catalog(kind), &expected);
            prop_assert_eq!(
                &FeatureCatalog::infer(of_kind().map(|(record, _)| record.features())),
                &expected
            );
        }
        let mut appended = ExecutionLog::new();
        appended.append(builders.clone());
        prop_assert_eq!(&appended, &log);

        let text = |records: &[ExecutionRecord]| format!("{records:?}");
        let parsed = ExecutionLog::from_json(&log.to_json().unwrap()).unwrap();
        prop_assert_eq!(text(parsed.records()), text(log.records()));
        prop_assert_eq!(&parsed, &log);

        let case = MODEL_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("px_record_model_{}_{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut journal = Journal::create(&dir, FsyncPolicy::OnCheckpoint).unwrap();
        journal.append_batch(0, log.records()).unwrap();
        drop(journal);
        let replay = snapshot::read_journal(&dir).unwrap();
        prop_assert_eq!(replay.batches.len(), 1);
        prop_assert_eq!(text(&replay.batches[0].records), text(log.records()));

        std::fs::remove_dir_all(&dir).unwrap();
        snapshot::persist(&log, &dir, 2).unwrap();
        let reopened = snapshot::open(&dir).unwrap().to_log();
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(text(reopened.records()), text(log.records()));
        prop_assert_eq!(&reopened, &log);
    }
}
