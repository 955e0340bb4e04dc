//! Raw feature definitions and the feature catalog.
//!
//! PerfXplain models every job (or task) execution as a flat vector of
//! features: configuration parameters, data characteristics, Hadoop counters
//! and averaged Ganglia metrics, plus the `duration` performance metric
//! itself.  The catalog records each raw feature's name and kind; the pair
//! feature constructor (`crate::pairs`) derives the `isSame` / `compare` /
//! `diff` / base features of Table 1 from it.

use pxql::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The kind of a raw feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Real-valued features (sizes, durations, loads, counters).
    Numeric,
    /// Categorical features (script names, hostnames, flags).
    Nominal,
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureKind::Numeric => write!(f, "numeric"),
            FeatureKind::Nominal => write!(f, "nominal"),
        }
    }
}

/// One raw feature of the execution schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureDef {
    /// Feature name, e.g. `inputsize` or `avg_load_five`.
    pub name: String,
    /// Numeric or nominal.
    pub kind: FeatureKind,
}

impl FeatureDef {
    /// Creates a numeric feature definition.
    pub fn numeric(name: impl Into<String>) -> Self {
        FeatureDef {
            name: name.into(),
            kind: FeatureKind::Numeric,
        }
    }

    /// Creates a nominal feature definition.
    pub fn nominal(name: impl Into<String>) -> Self {
        FeatureDef {
            name: name.into(),
            kind: FeatureKind::Nominal,
        }
    }
}

/// The ordered set of raw features of an execution log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FeatureCatalog {
    defs: Vec<FeatureDef>,
}

impl FeatureCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        FeatureCatalog::default()
    }

    /// Creates a catalog from definitions, deduplicating by name (first
    /// definition wins).
    pub fn from_defs(defs: Vec<FeatureDef>) -> Self {
        let mut catalog = FeatureCatalog::new();
        for def in defs {
            catalog.add(def);
        }
        catalog
    }

    /// Adds a definition unless a feature of the same name already exists.
    /// Returns whether the definition was inserted.
    pub fn add(&mut self, def: FeatureDef) -> bool {
        if self.get(&def.name).is_some() {
            return false;
        }
        self.defs.push(def);
        true
    }

    /// Number of raw features.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The definitions in insertion order.
    pub fn defs(&self) -> &[FeatureDef] {
        &self.defs
    }

    /// Looks up a feature by name.
    pub fn get(&self, name: &str) -> Option<&FeatureDef> {
        self.defs.iter().find(|d| d.name == name)
    }

    /// The kind of a feature, if known.
    pub fn kind(&self, name: &str) -> Option<FeatureKind> {
        self.get(name).map(|d| d.kind)
    }

    /// Iterates over feature names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.defs.iter().map(|d| d.name.as_str())
    }

    /// Merges `other` into this catalog such that merging per-shard
    /// [`FeatureCatalog::infer`] results equals one joint `infer` over all
    /// shards: the union of the features, numeric winning over nominal
    /// (a feature is numeric as soon as *any* shard saw a numeric value),
    /// re-sorted by name (the order `infer` produces).
    pub fn merge(&mut self, other: &FeatureCatalog) {
        let mut kinds: BTreeMap<&str, FeatureKind> = BTreeMap::new();
        for def in self.defs.iter().chain(&other.defs) {
            kinds
                .entry(&def.name)
                .and_modify(|kind| {
                    if def.kind == FeatureKind::Numeric {
                        *kind = FeatureKind::Numeric;
                    }
                })
                .or_insert(def.kind);
        }
        self.defs = kinds
            .into_iter()
            .map(|(name, kind)| FeatureDef {
                name: name.to_string(),
                kind,
            })
            .collect();
    }

    /// Infers a catalog from the features of a set of records, each given
    /// as its `(name, value)` pairs: a feature observed with any numeric
    /// value is numeric, otherwise nominal.  Features seen only as `Null`
    /// default to nominal.  A name is copied once, when first seen.
    pub fn infer<'a, R, N>(records: impl IntoIterator<Item = R>) -> Self
    where
        R: IntoIterator<Item = (N, &'a Value)>,
        N: AsRef<str>,
    {
        let mut kinds: BTreeMap<String, Option<FeatureKind>> = BTreeMap::new();
        for record in records {
            for (name, value) in record {
                let seen = match value {
                    Value::Num(_) => Some(FeatureKind::Numeric),
                    Value::Str(_) | Value::Bool(_) | Value::Pair(_, _) => {
                        Some(FeatureKind::Nominal)
                    }
                    Value::Null => None,
                };
                match kinds.get_mut(name.as_ref()) {
                    // Numeric stays numeric; a `Null` changes nothing.
                    Some(kind) if *kind != Some(FeatureKind::Numeric) => *kind = seen.or(*kind),
                    Some(_) => {}
                    None => {
                        kinds.insert(name.as_ref().to_string(), seen);
                    }
                }
            }
        }
        FeatureCatalog {
            defs: kinds
                .into_iter()
                .map(|(name, kind)| FeatureDef {
                    name,
                    kind: kind.unwrap_or(FeatureKind::Nominal),
                })
                .collect(),
        }
    }
}

/// The reserved name of the performance metric the paper explains.
pub const DURATION_FEATURE: &str = "duration";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_deduplicates_by_name() {
        let mut catalog = FeatureCatalog::new();
        assert!(catalog.add(FeatureDef::numeric("inputsize")));
        assert!(!catalog.add(FeatureDef::nominal("inputsize")));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.kind("inputsize"), Some(FeatureKind::Numeric));
        assert_eq!(catalog.kind("missing"), None);
    }

    #[test]
    fn from_defs_keeps_order() {
        let catalog = FeatureCatalog::from_defs(vec![
            FeatureDef::numeric("a"),
            FeatureDef::nominal("b"),
            FeatureDef::numeric("a"),
        ]);
        let names: Vec<&str> = catalog.names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn merged_shard_catalogs_equal_a_joint_inference() {
        let mut m1 = BTreeMap::new();
        m1.insert("zeta".to_string(), Value::str("z"));
        m1.insert("size".to_string(), Value::Null);
        let mut m2 = BTreeMap::new();
        m2.insert("size".to_string(), Value::Num(4.0));
        m2.insert("alpha".to_string(), Value::Bool(true));

        let joint = FeatureCatalog::infer([&m1, &m2]);
        let mut merged = FeatureCatalog::infer([&m1]);
        merged.merge(&FeatureCatalog::infer([&m2]));
        assert_eq!(merged, joint);
        // Numeric wins regardless of merge direction.
        let mut reversed = FeatureCatalog::infer([&m2]);
        reversed.merge(&FeatureCatalog::infer([&m1]));
        assert_eq!(reversed, joint);
        assert_eq!(merged.kind("size"), Some(FeatureKind::Numeric));
    }

    #[test]
    fn infer_prefers_numeric_when_seen() {
        let mut m1 = BTreeMap::new();
        m1.insert("x".to_string(), Value::Null);
        m1.insert("script".to_string(), Value::str("filter.pig"));
        let mut m2 = BTreeMap::new();
        m2.insert("x".to_string(), Value::Num(3.0));
        m2.insert("only_null".to_string(), Value::Null);
        let catalog = FeatureCatalog::infer([&m1, &m2]);
        assert_eq!(catalog.kind("x"), Some(FeatureKind::Numeric));
        assert_eq!(catalog.kind("script"), Some(FeatureKind::Nominal));
        assert_eq!(catalog.kind("only_null"), Some(FeatureKind::Nominal));
    }

    #[test]
    fn display_kinds() {
        assert_eq!(FeatureKind::Numeric.to_string(), "numeric");
        assert_eq!(FeatureKind::Nominal.to_string(), "nominal");
    }
}
