//! Pair (training-example) feature construction — Table 1 of the paper.
//!
//! A training example is a *pair* of executions.  For every raw feature `f`
//! of the execution schema the pair carries four derived features that
//! encode the relationship between the two executions at different levels of
//! resolution:
//!
//! | pair feature   | domain                        | defined for |
//! |----------------|-------------------------------|-------------|
//! | `f_isSame`     | `{T, F}`                      | all         |
//! | `f_compare`    | `{LT, SIM, GT}`               | numeric `f` |
//! | `f_diff`       | `dom(f) × dom(f)`             | nominal `f` |
//! | `f` (base)     | `dom(f)`                      | pairs agreeing on `f` |
//!
//! Two numeric values are *similar* (SIM) when they are within 10% of one
//! another (configurable).  Features that do not apply (e.g. `f_compare` of
//! a nominal feature, or the base feature of a pair that disagrees) are
//! missing.

use crate::features::{FeatureCatalog, FeatureDef, FeatureKind};
use crate::record::ExecutionRecord;
use mlcore::{FxHashMap, FxHashSet};
use pxql::{FeatureSource, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default similarity band of the `compare` features (Section 3.1,
/// footnote 1: "two values are considered to be similar if they are within
/// 10% of one another").
pub const DEFAULT_SIM_THRESHOLD: f64 = 0.10;

/// Value of a `compare` feature: the first execution's value is much less
/// than, similar to, or much greater than the second's.
pub mod compare_values {
    /// Much less than.
    pub const LT: &str = "LT";
    /// Similar (within the similarity band).
    pub const SIM: &str = "SIM";
    /// Much greater than.
    pub const GT: &str = "GT";
}

/// The three `compare` outcomes, indexed by [`compare_index`].
pub const COMPARE_VALUES: [&str; 3] = [compare_values::LT, compare_values::SIM, compare_values::GT];

/// Which of the four groups of Table 1 a pair feature belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairFeatureGroup {
    /// `f_isSame` features.
    IsSame,
    /// `f_compare` features.
    Compare,
    /// `f_diff` features.
    Diff,
    /// Base features copied from the executions when they agree.
    Base,
}

/// Suffix conventions for derived pair feature names.
pub const IS_SAME_SUFFIX: &str = "_isSame";
/// Suffix of `compare` features.
pub const COMPARE_SUFFIX: &str = "_compare";
/// Suffix of `diff` features.
pub const DIFF_SUFFIX: &str = "_diff";

/// Name of the `isSame` feature derived from raw feature `f`.
pub fn is_same_name(raw: &str) -> String {
    format!("{raw}{IS_SAME_SUFFIX}")
}

/// Name of the `compare` feature derived from raw feature `f`.
pub fn compare_name(raw: &str) -> String {
    format!("{raw}{COMPARE_SUFFIX}")
}

/// Name of the `diff` feature derived from raw feature `f`.
pub fn diff_name(raw: &str) -> String {
    format!("{raw}{DIFF_SUFFIX}")
}

/// Decomposes a pair feature name into the raw feature it derives from and
/// its group.
pub fn parse_pair_feature(name: &str) -> (&str, PairFeatureGroup) {
    if let Some(raw) = name.strip_suffix(IS_SAME_SUFFIX) {
        (raw, PairFeatureGroup::IsSame)
    } else if let Some(raw) = name.strip_suffix(COMPARE_SUFFIX) {
        (raw, PairFeatureGroup::Compare)
    } else if let Some(raw) = name.strip_suffix(DIFF_SUFFIX) {
        (raw, PairFeatureGroup::Diff)
    } else {
        (name, PairFeatureGroup::Base)
    }
}

/// A pair-feature definition: name, storage kind and group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairFeatureDef {
    /// Pair feature name (e.g. `inputsize_compare`).
    pub name: String,
    /// Whether the derived feature is numeric or nominal.
    pub kind: FeatureKind,
    /// Which group of Table 1 the feature belongs to.
    pub group: PairFeatureGroup,
    /// The raw feature it was derived from.
    pub raw: String,
}

/// The catalog of pair features derived from a raw-feature catalog.
///
/// Lookup by name goes through a precomputed index, so [`PairCatalog::get`]
/// is O(1) instead of a linear scan over 4·k definitions.
#[derive(Debug, Clone, Default)]
pub struct PairCatalog {
    defs: Vec<PairFeatureDef>,
    index: FxHashMap<String, usize>,
}

impl PairCatalog {
    fn from_defs(defs: Vec<PairFeatureDef>) -> Self {
        let index = defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        PairCatalog { defs, index }
    }

    /// Derives the 4·k pair features of a raw catalog with k features.
    pub fn from_raw(catalog: &FeatureCatalog) -> Self {
        let mut defs = Vec::with_capacity(catalog.len() * 4);
        for FeatureDef { name, kind } in catalog.defs() {
            defs.push(PairFeatureDef {
                name: is_same_name(name),
                kind: FeatureKind::Nominal,
                group: PairFeatureGroup::IsSame,
                raw: name.clone(),
            });
            defs.push(PairFeatureDef {
                name: compare_name(name),
                kind: FeatureKind::Nominal,
                group: PairFeatureGroup::Compare,
                raw: name.clone(),
            });
            defs.push(PairFeatureDef {
                name: diff_name(name),
                kind: FeatureKind::Nominal,
                group: PairFeatureGroup::Diff,
                raw: name.clone(),
            });
            defs.push(PairFeatureDef {
                name: name.clone(),
                kind: *kind,
                group: PairFeatureGroup::Base,
                raw: name.clone(),
            });
        }
        PairCatalog::from_defs(defs)
    }

    /// The pair-feature definitions.
    pub fn defs(&self) -> &[PairFeatureDef] {
        &self.defs
    }

    /// Number of pair features (4·k).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Looks a pair feature up by name (O(1)).
    pub fn get(&self, name: &str) -> Option<&PairFeatureDef> {
        self.index.get(name).map(|&i| &self.defs[i])
    }

    /// Restricts the catalog to the given groups (used by the feature-level
    /// experiment of Section 6.8).
    pub fn restrict_to_groups(&self, groups: &[PairFeatureGroup]) -> PairCatalog {
        PairCatalog::from_defs(
            self.defs
                .iter()
                .filter(|d| groups.contains(&d.group))
                .cloned()
                .collect(),
        )
    }
}

impl PartialEq for PairCatalog {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from the definitions.
        self.defs == other.defs
    }
}

impl Serialize for PairCatalog {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![("defs".to_string(), self.defs.serialize())])
    }
}

impl Deserialize for PairCatalog {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "PairCatalog"))?;
        let defs = Deserialize::deserialize(serde::Content::field(entries, "defs"))?;
        Ok(PairCatalog::from_defs(defs))
    }
}

/// Classifies the relationship between two numeric values as an index into
/// [`COMPARE_VALUES`] (0 = LT, 1 = SIM, 2 = GT).  The index form lets the
/// columnar hot path pre-evaluate predicates per outcome and skip the
/// `&'static str` entirely.
pub fn compare_index(left: f64, right: f64, sim_threshold: f64) -> usize {
    let scale = left.abs().max(right.abs());
    if scale == 0.0 || (left - right).abs() <= sim_threshold * scale {
        1
    } else if left < right {
        0
    } else {
        2
    }
}

/// Classifies the relationship between two numeric values.
fn compare_numbers(left: f64, right: f64, sim_threshold: f64) -> &'static str {
    COMPARE_VALUES[compare_index(left, right, sim_threshold)]
}

/// `isSame` value of one raw feature: defined whenever both sides are
/// present.
pub(crate) fn is_same_value(left: &Value, right: &Value) -> Value {
    if left.is_null() || right.is_null() {
        Value::Null
    } else {
        Value::Bool(left.pxql_eq(right))
    }
}

/// `compare` value of one raw feature: numeric features only.
pub(crate) fn compare_value(
    def: &FeatureDef,
    left: &Value,
    right: &Value,
    sim_threshold: f64,
) -> Value {
    match (def.kind, left.as_num(), right.as_num()) {
        (FeatureKind::Numeric, Some(l), Some(r)) => {
            Value::str(compare_numbers(l, r, sim_threshold))
        }
        _ => Value::Null,
    }
}

/// `diff` value of one raw feature: nominal features only, and only when
/// the two values differ.
pub(crate) fn diff_value(def: &FeatureDef, left: &Value, right: &Value) -> Value {
    let missing = left.is_null() || right.is_null();
    if def.kind == FeatureKind::Nominal && !missing && !left.pxql_eq(right) {
        Value::pair(left.clone(), right.clone())
    } else {
        Value::Null
    }
}

/// Base value of one raw feature: the shared value when the executions
/// agree.
pub(crate) fn base_value(left: &Value, right: &Value) -> Value {
    if !left.is_null() && !right.is_null() && left.pxql_eq(right) {
        left.clone()
    } else {
        Value::Null
    }
}

/// Computes the pair features of `(left, right)` for one raw feature.
fn pair_features_for(
    def: &FeatureDef,
    left: &Value,
    right: &Value,
    sim_threshold: f64,
    out: &mut BTreeMap<String, Value>,
) {
    let name = &def.name;
    out.insert(is_same_name(name), is_same_value(left, right));
    out.insert(
        compare_name(name),
        compare_value(def, left, right, sim_threshold),
    );
    out.insert(diff_name(name), diff_value(def, left, right));
    out.insert(name.clone(), base_value(left, right));
}

/// Computes the full pair-feature map of a pair of executions.
pub fn compute_pair_features(
    catalog: &FeatureCatalog,
    left: &ExecutionRecord,
    right: &ExecutionRecord,
    sim_threshold: f64,
) -> BTreeMap<String, Value> {
    let mut out = BTreeMap::new();
    for def in catalog.defs() {
        let l = left.feature(&def.name);
        let r = right.feature(&def.name);
        pair_features_for(def, &l, &r, sim_threshold, &mut out);
    }
    out
}

/// Computes only the pair features named in `needed`, resolving each back to
/// its raw feature.  Much cheaper than [`compute_pair_features`] when
/// classifying large numbers of candidate pairs against a query that
/// mentions only a handful of features.
pub fn compute_selected_pair_features(
    catalog: &FeatureCatalog,
    left: &ExecutionRecord,
    right: &ExecutionRecord,
    sim_threshold: f64,
    needed: &[&str],
) -> BTreeMap<String, Value> {
    // Deduplicate (raw feature, group) requests with a set, then compute
    // only the derived groups that were actually asked for.
    let mut requested: FxHashSet<(&str, PairFeatureGroup)> =
        FxHashSet::with_capacity_and_hasher(needed.len(), Default::default());
    for name in needed {
        requested.insert(parse_pair_feature(name));
    }
    let mut out = BTreeMap::new();
    for (raw, group) in requested {
        if let Some(def) = catalog.get(raw) {
            let l = left.feature(&def.name);
            let r = right.feature(&def.name);
            let value = match group {
                PairFeatureGroup::IsSame => is_same_value(&l, &r),
                PairFeatureGroup::Compare => compare_value(def, &l, &r, sim_threshold),
                PairFeatureGroup::Diff => diff_value(def, &l, &r),
                PairFeatureGroup::Base => base_value(&l, &r),
            };
            let name = match group {
                PairFeatureGroup::IsSame => is_same_name(raw),
                PairFeatureGroup::Compare => compare_name(raw),
                PairFeatureGroup::Diff => diff_name(raw),
                PairFeatureGroup::Base => raw.to_string(),
            };
            out.insert(name, value);
        }
    }
    out
}

/// A fully materialised training example: a pair of executions plus its pair
/// features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairExample {
    /// Identifier of the first execution.
    pub left_id: String,
    /// Identifier of the second execution.
    pub right_id: String,
    /// The derived pair features.
    pub features: BTreeMap<String, Value>,
}

impl PairExample {
    /// Builds the pair example for `(left, right)`.
    pub fn build(
        catalog: &FeatureCatalog,
        left: &ExecutionRecord,
        right: &ExecutionRecord,
        sim_threshold: f64,
    ) -> Self {
        PairExample {
            left_id: left.id.clone(),
            right_id: right.id.clone(),
            features: compute_pair_features(catalog, left, right, sim_threshold),
        }
    }

    /// Reads a pair feature (missing features read as `Null`).
    pub fn feature(&self, name: &str) -> Value {
        self.features.get(name).cloned().unwrap_or(Value::Null)
    }
}

impl FeatureSource for PairExample {
    fn feature(&self, name: &str) -> Option<Value> {
        self.features.get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureDef;

    fn catalog() -> FeatureCatalog {
        FeatureCatalog::from_defs(vec![
            FeatureDef::numeric("inputsize"),
            FeatureDef::numeric("numinstances"),
            FeatureDef::nominal("pigscript"),
            FeatureDef::numeric("duration"),
        ])
    }

    fn job(
        id: &str,
        inputsize: f64,
        instances: f64,
        script: &str,
        duration: f64,
    ) -> ExecutionRecord {
        ExecutionRecord::job(id)
            .with_feature("inputsize", inputsize)
            .with_feature("numinstances", instances)
            .with_feature("pigscript", script)
            .with_feature("duration", duration)
    }

    #[test]
    fn table1_feature_groups_are_generated() {
        let catalog = catalog();
        let pair_catalog = PairCatalog::from_raw(&catalog);
        assert_eq!(pair_catalog.len(), 16);
        assert!(pair_catalog.get("inputsize_isSame").is_some());
        assert!(pair_catalog.get("inputsize_compare").is_some());
        assert!(pair_catalog.get("inputsize_diff").is_some());
        assert!(pair_catalog.get("inputsize").is_some());
        assert_eq!(
            pair_catalog.get("pigscript").unwrap().kind,
            FeatureKind::Nominal
        );
        assert_eq!(
            pair_catalog.get("inputsize").unwrap().group,
            PairFeatureGroup::Base
        );
    }

    #[test]
    fn compare_uses_ten_percent_band() {
        assert_eq!(compare_numbers(100.0, 109.0, 0.10), compare_values::SIM);
        assert_eq!(compare_numbers(100.0, 95.0, 0.10), compare_values::SIM);
        assert_eq!(compare_numbers(100.0, 300.0, 0.10), compare_values::LT);
        assert_eq!(compare_numbers(300.0, 100.0, 0.10), compare_values::GT);
        assert_eq!(compare_numbers(0.0, 0.0, 0.10), compare_values::SIM);
    }

    #[test]
    fn pair_features_of_differing_jobs() {
        let catalog = catalog();
        let a = job("job_a", 32.0e9, 8.0, "simple-filter.pig", 1800.0);
        let b = job("job_b", 1.0e9, 8.0, "simple-groupby.pig", 1750.0);
        let pair = PairExample::build(&catalog, &a, &b, DEFAULT_SIM_THRESHOLD);

        assert_eq!(pair.feature("inputsize_isSame"), Value::Bool(false));
        assert_eq!(pair.feature("inputsize_compare"), Value::str("GT"));
        // diff only applies to nominal features.
        assert!(pair.feature("inputsize_diff").is_null());
        // base only applies when values agree.
        assert!(pair.feature("inputsize").is_null());

        assert_eq!(pair.feature("numinstances_isSame"), Value::Bool(true));
        assert_eq!(pair.feature("numinstances_compare"), Value::str("SIM"));
        assert_eq!(pair.feature("numinstances"), Value::Num(8.0));

        assert_eq!(pair.feature("pigscript_isSame"), Value::Bool(false));
        assert!(pair.feature("pigscript_compare").is_null());
        assert_eq!(
            pair.feature("pigscript_diff"),
            Value::pair(
                Value::str("simple-filter.pig"),
                Value::str("simple-groupby.pig")
            )
        );

        assert_eq!(pair.feature("duration_compare"), Value::str("SIM"));
    }

    #[test]
    fn missing_raw_values_propagate_as_missing() {
        let catalog = catalog();
        let a = job("job_a", 1.0e9, 8.0, "simple-filter.pig", 100.0);
        let b = ExecutionRecord::job("job_b")
            .with_feature("inputsize", 1.0e9)
            .with_feature("pigscript", "simple-filter.pig")
            .with_feature("duration", 100.0);
        let pair = PairExample::build(&catalog, &a, &b, DEFAULT_SIM_THRESHOLD);
        assert!(pair.feature("numinstances_isSame").is_null());
        assert!(pair.feature("numinstances_compare").is_null());
        assert!(pair.feature("numinstances").is_null());
    }

    #[test]
    fn selected_features_match_full_computation() {
        let catalog = catalog();
        let a = job("job_a", 2.0e9, 4.0, "simple-filter.pig", 400.0);
        let b = job("job_b", 1.0e9, 16.0, "simple-groupby.pig", 380.0);
        let full = compute_pair_features(&catalog, &a, &b, DEFAULT_SIM_THRESHOLD);
        let selected = compute_selected_pair_features(
            &catalog,
            &a,
            &b,
            DEFAULT_SIM_THRESHOLD,
            &["duration_compare", "numinstances_isSame"],
        );
        assert_eq!(
            selected.get("duration_compare"),
            full.get("duration_compare")
        );
        assert_eq!(
            selected.get("numinstances_isSame"),
            full.get("numinstances_isSame")
        );
        // Untouched raw features are simply not computed.
        assert!(!selected.contains_key("pigscript_diff"));
    }

    #[test]
    fn parse_pair_feature_names() {
        assert_eq!(
            parse_pair_feature("inputsize_isSame"),
            ("inputsize", PairFeatureGroup::IsSame)
        );
        assert_eq!(
            parse_pair_feature("avg_load_five_compare"),
            ("avg_load_five", PairFeatureGroup::Compare)
        );
        assert_eq!(
            parse_pair_feature("pigscript_diff"),
            ("pigscript", PairFeatureGroup::Diff)
        );
        assert_eq!(
            parse_pair_feature("blocksize"),
            ("blocksize", PairFeatureGroup::Base)
        );
    }

    #[test]
    fn restrict_to_groups_filters_catalog() {
        let pair_catalog = PairCatalog::from_raw(&catalog());
        let level1 = pair_catalog.restrict_to_groups(&[PairFeatureGroup::IsSame]);
        assert_eq!(level1.len(), 4);
        assert!(level1
            .defs()
            .iter()
            .all(|d| d.group == PairFeatureGroup::IsSame));
    }
}
