//! End-to-end integration tests: simulator → Hadoop logs → collector →
//! PerfXplain, exercised through the public facade crate.

use perfxplain::prelude::*;
use perfxplain::{
    assess, evaluate_on_log, generate_explanation, prepare_encoded_training, split_log,
    ExecutionLog,
};

/// One shared log for the whole file: building it exercises the full
/// substrate (simulation, history/conf/Ganglia rendering, parsing,
/// collection).
fn tiny_log() -> ExecutionLog {
    build_execution_log(LogPreset::Tiny, 20260615)
}

#[test]
fn job_query_end_to_end() {
    let log = tiny_log();
    let binding = why_slower_despite_same_num_instances(&log).expect("pair of interest");
    let config = ExplainConfig::default();
    let engine = PerfXplain::new(config.clone());
    let explanation = engine.explain(&log, &binding.bound).expect("explanation");

    // The explanation is applicable to the pair of interest (Definition 3)…
    let poi = binding
        .bound
        .pair_of_interest(&log, config.sim_threshold)
        .unwrap();
    assert!(explanation.is_applicable(&poi));
    // …has the requested width…
    assert!(explanation.width() >= 1 && explanation.width() <= config.width);
    // …never mentions the duration it is supposed to explain…
    assert!(explanation
        .because
        .features()
        .iter()
        .all(|f| !f.starts_with("duration")));
    // …and beats the base rate P(obs | des) on the related pairs.
    let related = prepare_encoded_training(&log, &binding.bound, &config).unwrap();
    let quality = assess(&related, &explanation);
    let base_rate = related.num_observed() as f64 / related.len() as f64;
    assert!(
        quality.precision.unwrap_or(0.0) >= base_rate,
        "precision {:?} below base rate {base_rate}",
        quality.precision
    );
}

#[test]
fn task_query_end_to_end() {
    let log = tiny_log();
    let binding = why_last_task_faster(&log).expect("pair of interest");
    let config = ExplainConfig::default().with_width(3);
    let engine = PerfXplain::new(config.clone());
    let explanation = engine.explain(&log, &binding.bound).expect("explanation");

    let poi = binding
        .bound
        .pair_of_interest(&log, config.sim_threshold)
        .unwrap();
    assert!(explanation.is_applicable(&poi));
    assert!(explanation.width() >= 1);

    // The winning explanation should talk about the machine's load /
    // concurrency (Ganglia metrics) or placement — not about identifiers.
    let features = explanation.because.features();
    assert!(
        features.iter().any(|f| f.starts_with("avg_")
            || f.contains("load")
            || f.contains("cpu")
            || f.contains("proc")),
        "unexpected task explanation: {}",
        explanation.because
    );
}

#[test]
fn all_techniques_work_on_train_test_splits() {
    let log = tiny_log();
    let binding = why_slower_despite_same_num_instances(&log).expect("pair of interest");
    let config = ExplainConfig::default().with_width(2);

    // The tiny log has so few jobs that an unlucky split can leave the
    // training half without both classes; that is expected behaviour (the
    // engine reports it instead of fabricating an explanation), so probe a
    // few split seeds and require at least one to succeed for every
    // technique.
    let mut succeeded = false;
    for seed in 0..8u64 {
        let (train, test) = split_log(&log, &binding.bound, 0.6, seed);
        let explanations: Vec<_> = Technique::all()
            .into_iter()
            .map(|t| generate_explanation(t, &train, &binding.bound, &config))
            .collect();
        if explanations.iter().any(|e| e.is_err()) {
            continue;
        }
        for (technique, explanation) in Technique::all().into_iter().zip(explanations) {
            let explanation = explanation.unwrap();
            let result = evaluate_on_log(&explanation, &test, &binding.bound, &config);
            assert!(
                result.related_pairs > 0,
                "{technique}: no related pairs in the test log"
            );
            let precision = result.quality.precision.unwrap_or(0.0);
            assert!(
                (0.0..=1.0).contains(&precision),
                "{technique}: precision out of range"
            );
        }
        succeeded = true;
        break;
    }
    assert!(succeeded, "no split seed allowed all techniques to train");
}

#[test]
fn generated_despite_clause_improves_relevance_of_underspecified_query() {
    let log = tiny_log();
    let binding = why_slower_despite_same_num_instances(&log).expect("pair of interest");

    // Strip the despite clause.
    let underspecified = perfxplain::BoundQuery::new(
        parse_query("OBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM").unwrap(),
        &binding.bound.left_id,
        &binding.bound.right_id,
    );

    let config = ExplainConfig::default();
    let engine = PerfXplain::new(config.clone());
    let related = prepare_encoded_training(&log, &underspecified, &config).unwrap();
    let before = perfxplain::relevance(&related, &Predicate::always_true()).unwrap_or(0.0);

    let despite = engine
        .generate_despite(&log, &underspecified)
        .expect("despite generation");
    let after = perfxplain::relevance(&related, &despite).unwrap_or(0.0);
    assert!(
        after >= before,
        "generated despite clause lowered relevance: {before} -> {after}"
    );
    assert!(!despite.is_trivial());
}

#[test]
fn execution_log_round_trips_through_json() {
    let log = tiny_log();
    let json = log.to_json().unwrap();
    let reloaded = ExecutionLog::from_json(&json).unwrap();
    assert_eq!(log.jobs().count(), reloaded.jobs().count());
    assert_eq!(log.tasks().count(), reloaded.tasks().count());
    assert_eq!(log.job_catalog().len(), reloaded.job_catalog().len());

    // Reloaded logs answer queries identically.
    let binding = why_slower_despite_same_num_instances(&log).unwrap();
    let config = ExplainConfig::default();
    let a = PerfXplain::new(config.clone())
        .explain(&log, &binding.bound)
        .unwrap();
    let b = PerfXplain::new(config)
        .explain(&reloaded, &binding.bound)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn explanations_are_deterministic_for_a_fixed_seed() {
    let log = tiny_log();
    let binding = why_last_task_faster(&log).expect("pair of interest");
    let config = ExplainConfig::default().with_seed(77);
    let a = PerfXplain::new(config.clone())
        .explain(&log, &binding.bound)
        .unwrap();
    let b = PerfXplain::new(config)
        .explain(&log, &binding.bound)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn feature_levels_restrict_explanation_vocabulary_end_to_end() {
    let log = tiny_log();
    let binding = why_slower_despite_same_num_instances(&log).expect("pair of interest");
    let config = ExplainConfig::default().with_feature_level(FeatureLevel::Level1);
    let explanation = PerfXplain::new(config)
        .explain(&log, &binding.bound)
        .unwrap();
    for atom in explanation.because.atoms() {
        assert!(
            atom.feature.ends_with("_isSame"),
            "level-1 explanation used {}",
            atom.feature
        );
    }
}
