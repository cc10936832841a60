//! Selector identity and parameters as a parse/print round-trippable
//! value.
//!
//! The spec travels three ways: parsed from `--selector NAME[:k=v,...]`
//! on the command line, persisted as a single `selector=` line in the
//! batch manifest and the live/sharded manifests, and re-hydrated when a
//! segment is re-mined during flush or compaction. `parse(display(s))`
//! is the identity, so what fsck reads back is exactly what the build
//! was configured with.
//!
//! All parameter validation happens here, at parse time — `k=0`, `c`
//! outside `(0,1]`, a zero budget, or an empty qlog path are usage
//! errors with actionable messages, mirroring the `--shards 0`
//! precedent, so a degenerate sweep can never reach the miner.

use core::fmt;
use std::path::PathBuf;

use crate::budgeted::DEFAULT_SWEEP_STEPS;
use crate::{
    AprioriSelector, BudgetedSelector, Error, GramSelector, Result, TrigramSelector,
    WorkloadSelector,
};

/// Maximum fixed gram length accepted for the trigram family.
pub const MAX_FIXED_K: usize = 16;

/// Which gram-selection strategy to run, with its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectorSpec {
    /// Algorithm 3.1 (the default); `c` overrides the engine threshold.
    Apriori {
        /// Optional usefulness-threshold override.
        c: Option<f64>,
    },
    /// Every distinct gram of exactly length `k`.
    Trigram {
        /// The fixed gram length.
        k: usize,
    },
    /// Threshold sweep under an index-size budget.
    Budgeted {
        /// Maximum estimated index bytes.
        budget: u64,
        /// Upper end of the sweep (defaults to the engine threshold).
        c: Option<f64>,
        /// Grid points in the sweep.
        steps: usize,
    },
    /// Candidates mined from a captured qlog directory.
    Workload {
        /// The qlog directory.
        qlog: PathBuf,
        /// Optional usefulness-threshold override.
        c: Option<f64>,
        /// Keep only the top-weighted grams (0 = unlimited).
        max_grams: usize,
    },
}

impl Default for SelectorSpec {
    fn default() -> Self {
        SelectorSpec::Apriori { c: None }
    }
}

fn parse_c(value: &str) -> Result<f64> {
    let c: f64 = value
        .parse()
        .map_err(|_| Error::Config(format!("selector parameter c={value:?} is not a number")))?;
    if !(c > 0.0 && c <= 1.0) {
        return Err(Error::Config(format!(
            "selector parameter c must be in (0, 1], got {value} — at c <= 0 \
             every gram is useless (floor(c*N) = 0 keeps nothing)"
        )));
    }
    Ok(c)
}

fn parse_usize(key: &str, value: &str) -> Result<usize> {
    value.parse().map_err(|_| {
        Error::Config(format!(
            "selector parameter {key}={value:?} is not a non-negative integer"
        ))
    })
}

/// Parses a byte count with an optional `k`/`m`/`g` (KiB/MiB/GiB) suffix.
fn parse_budget(value: &str) -> Result<u64> {
    let (digits, mult) = match value.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&value[..value.len() - 1], 1024u64),
        Some(b'm') | Some(b'M') => (&value[..value.len() - 1], 1024 * 1024),
        Some(b'g') | Some(b'G') => (&value[..value.len() - 1], 1024 * 1024 * 1024),
        _ => (value, 1),
    };
    let n: u64 = digits.parse().map_err(|_| {
        Error::Config(format!(
            "selector parameter budget={value:?} is not a byte count \
             (use a plain integer or a k/m/g suffix, e.g. budget=64m)"
        ))
    })?;
    let bytes = n.saturating_mul(mult);
    if bytes == 0 {
        return Err(Error::Config(
            "selector parameter budget must be at least 1 byte (a zero budget \
             fits no index)"
                .into(),
        ));
    }
    Ok(bytes)
}

impl SelectorSpec {
    /// Parses `NAME[:k=v,...]` syntax, validating every parameter.
    pub fn parse(spec: &str) -> Result<SelectorSpec> {
        let (name, params_str) = match spec.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (spec, None),
        };
        let mut params: Vec<(&str, &str)> = Vec::new();
        if let Some(p) = params_str {
            for part in p.split(',') {
                let Some((key, value)) = part.split_once('=') else {
                    return Err(Error::Config(format!(
                        "selector parameter {part:?} is not key=value (expected \
                         NAME:k1=v1,k2=v2,... syntax)"
                    )));
                };
                if value.is_empty() {
                    return Err(Error::Config(format!(
                        "selector parameter {key} has an empty value"
                    )));
                }
                params.push((key, value));
            }
        }

        let unknown = |key: &str, valid: &str| {
            Error::Config(format!(
                "unknown parameter {key:?} for selector {name:?} (valid: {valid})"
            ))
        };

        match name {
            "apriori" => {
                let mut c = None;
                for (key, value) in params {
                    match key {
                        "c" => c = Some(parse_c(value)?),
                        other => return Err(unknown(other, "c")),
                    }
                }
                Ok(SelectorSpec::Apriori { c })
            }
            "trigram" => {
                let mut k = 3usize;
                for (key, value) in params {
                    match key {
                        "k" => k = parse_usize("k", value)?,
                        other => return Err(unknown(other, "k")),
                    }
                }
                if k == 0 || k > MAX_FIXED_K {
                    return Err(Error::Config(format!(
                        "selector parameter k must be between 1 and {MAX_FIXED_K}, got {k}"
                    )));
                }
                Ok(SelectorSpec::Trigram { k })
            }
            "budgeted" => {
                let mut budget = None;
                let mut c = None;
                let mut steps = DEFAULT_SWEEP_STEPS;
                for (key, value) in params {
                    match key {
                        "budget" => budget = Some(parse_budget(value)?),
                        "c" => c = Some(parse_c(value)?),
                        "steps" => steps = parse_usize("steps", value)?,
                        other => return Err(unknown(other, "budget, c, steps")),
                    }
                }
                let Some(budget) = budget else {
                    return Err(Error::Config(
                        "selector budgeted requires a budget parameter, e.g. \
                         --selector budgeted:budget=64m"
                            .into(),
                    ));
                };
                if !(2..=64).contains(&steps) {
                    return Err(Error::Config(format!(
                        "selector parameter steps must be between 2 and 64, got {steps}"
                    )));
                }
                Ok(SelectorSpec::Budgeted { budget, c, steps })
            }
            "workload" => {
                let mut qlog = None;
                let mut c = None;
                let mut max_grams = 0usize;
                for (key, value) in params {
                    match key {
                        "qlog" => qlog = Some(PathBuf::from(value)),
                        "c" => c = Some(parse_c(value)?),
                        "max_grams" => max_grams = parse_usize("max_grams", value)?,
                        other => return Err(unknown(other, "qlog, c, max_grams")),
                    }
                }
                let Some(qlog) = qlog else {
                    return Err(Error::Config(
                        "selector workload requires a qlog directory, e.g. \
                         --selector workload:qlog=QLOG_DIR (capture one with \
                         `free search --query-log QLOG_DIR ...`)"
                            .into(),
                    ));
                };
                Ok(SelectorSpec::Workload { qlog, c, max_grams })
            }
            other => Err(Error::Config(format!(
                "unknown selector {other:?} (valid: apriori, trigram, budgeted, workload)"
            ))),
        }
    }

    /// Validates a directly-constructed spec (parse already validates).
    pub fn validate(&self) -> Result<()> {
        // Round-trip through the parser so both construction paths face
        // identical rules.
        let rendered = self.to_string();
        let parsed = SelectorSpec::parse(&rendered)?;
        if &parsed != self {
            return Err(Error::Config(format!(
                "selector spec {rendered:?} does not round-trip (parsed back as \
                 {parsed:?}); parameters out of range?"
            )));
        }
        Ok(())
    }

    /// The strategy's short name.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorSpec::Apriori { .. } => "apriori",
            SelectorSpec::Trigram { .. } => "trigram",
            SelectorSpec::Budgeted { .. } => "budgeted",
            SelectorSpec::Workload { .. } => "workload",
        }
    }

    /// Whether this is the default spec (plain a-priori mining) —
    /// manifests omit the `selector=` line for it, keeping old indexes
    /// byte-identical.
    pub fn is_default(&self) -> bool {
        *self == SelectorSpec::default()
    }

    /// The usefulness threshold `c` this strategy selects with: its own
    /// override, else `engine_c`.
    pub fn usefulness_threshold(&self, engine_c: f64) -> f64 {
        match self {
            SelectorSpec::Apriori { c }
            | SelectorSpec::Budgeted { c, .. }
            | SelectorSpec::Workload { c, .. } => c.unwrap_or(engine_c),
            SelectorSpec::Trigram { .. } => engine_c,
        }
    }
}

impl fmt::Display for SelectorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", selector_for(self).spec_string())
    }
}

/// Instantiates the strategy a spec describes.
pub fn selector_for(spec: &SelectorSpec) -> Box<dyn GramSelector> {
    match spec {
        SelectorSpec::Apriori { c } => Box::new(AprioriSelector { c: *c }),
        SelectorSpec::Trigram { k } => Box::new(TrigramSelector { k: *k }),
        SelectorSpec::Budgeted { budget, c, steps } => Box::new(BudgetedSelector {
            budget: *budget,
            c: *c,
            steps: *steps,
        }),
        SelectorSpec::Workload { qlog, c, max_grams } => Box::new(WorkloadSelector {
            qlog: qlog.clone(),
            c: *c,
            max_grams: *max_grams,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        assert_eq!(
            SelectorSpec::parse("apriori").unwrap(),
            SelectorSpec::Apriori { c: None }
        );
        assert_eq!(
            SelectorSpec::parse("trigram").unwrap(),
            SelectorSpec::Trigram { k: 3 }
        );
    }

    #[test]
    fn parse_with_params() {
        assert_eq!(
            SelectorSpec::parse("apriori:c=0.05").unwrap(),
            SelectorSpec::Apriori { c: Some(0.05) }
        );
        assert_eq!(
            SelectorSpec::parse("trigram:k=4").unwrap(),
            SelectorSpec::Trigram { k: 4 }
        );
        assert_eq!(
            SelectorSpec::parse("budgeted:budget=64m,c=0.2,steps=4").unwrap(),
            SelectorSpec::Budgeted {
                budget: 64 * 1024 * 1024,
                c: Some(0.2),
                steps: 4
            }
        );
        assert_eq!(
            SelectorSpec::parse("workload:qlog=/tmp/qlog,max_grams=100").unwrap(),
            SelectorSpec::Workload {
                qlog: PathBuf::from("/tmp/qlog"),
                c: None,
                max_grams: 100
            }
        );
    }

    #[test]
    fn display_round_trips() {
        for spec in [
            SelectorSpec::Apriori { c: None },
            SelectorSpec::Apriori { c: Some(0.25) },
            SelectorSpec::Trigram { k: 3 },
            SelectorSpec::Budgeted {
                budget: 123_456,
                c: None,
                steps: 8,
            },
            SelectorSpec::Workload {
                qlog: PathBuf::from("logs/q"),
                c: Some(0.1),
                max_grams: 0,
            },
        ] {
            let rendered = spec.to_string();
            assert_eq!(
                SelectorSpec::parse(&rendered).unwrap(),
                spec,
                "round-trip failed for {rendered:?}"
            );
            assert!(spec.validate().is_ok(), "{rendered}");
        }
    }

    #[test]
    fn degenerate_params_rejected_at_parse_time() {
        for (bad, needle) in [
            ("trigram:k=0", "between 1 and"),
            ("trigram:k=999", "between 1 and"),
            ("apriori:c=0", "(0, 1]"),
            ("apriori:c=0.0", "(0, 1]"),
            ("apriori:c=1.5", "(0, 1]"),
            ("apriori:c=-0.1", "(0, 1]"),
            ("budgeted:budget=0", "at least 1 byte"),
            ("budgeted", "requires a budget"),
            ("budgeted:budget=1k,steps=1", "between 2 and 64"),
            ("workload", "requires a qlog"),
            ("workload:qlog=", "empty value"),
            ("nonsense", "unknown selector"),
            ("apriori:k=3", "unknown parameter"),
            ("trigram:k", "not key=value"),
        ] {
            let err = SelectorSpec::parse(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn budget_suffixes() {
        assert_eq!(
            SelectorSpec::parse("budgeted:budget=2k").unwrap(),
            SelectorSpec::Budgeted {
                budget: 2048,
                c: None,
                steps: DEFAULT_SWEEP_STEPS
            }
        );
        assert_eq!(
            SelectorSpec::parse("budgeted:budget=1g").unwrap(),
            SelectorSpec::Budgeted {
                budget: 1024 * 1024 * 1024,
                c: None,
                steps: DEFAULT_SWEEP_STEPS
            }
        );
    }

    #[test]
    fn default_is_apriori() {
        assert!(SelectorSpec::default().is_default());
        assert!(!SelectorSpec::Trigram { k: 3 }.is_default());
        assert_eq!(SelectorSpec::default().to_string(), "apriori");
    }

    #[test]
    fn factory_matches_spec() {
        for s in ["apriori", "trigram:k=5", "budgeted:budget=1m,steps=4"] {
            let spec = SelectorSpec::parse(s).unwrap();
            let sel = selector_for(&spec);
            assert_eq!(sel.name(), spec.name());
            assert_eq!(SelectorSpec::parse(&sel.spec_string()).unwrap(), spec);
        }
    }
}
