//! Sweep-job specifications and the content-address cache key.
//!
//! A job spec is the JSON a client submits: which figure of the paper's
//! experiment grid to produce, under which base seed, at which grid
//! scale. The service content-addresses every result by a digest over
//! the *canonical* spec and the code version. The spec is all a run
//! takes: the machines it builds are configured in code, and no
//! environment variable changes them. Two submissions that differ only
//! in JSON whitespace or key order map to the same key; two that differ
//! in any spec field never collide.

use wisync_core::SNAPSHOT_VERSION;
use wisync_testkit::Json;

/// Default base seed, matching the committed `results/*.json` sweeps.
pub const DEFAULT_SEED: u64 = 0xC0DE;

/// A validated sweep-job request: `{"figure": "fig7", "seed": 49374,
/// "quick": false}`. `seed` and `quick` are optional and default to the
/// committed-results values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Which figure/table of the grid to produce (e.g. `fig7`).
    pub figure: String,
    /// Base seed every job seed is derived from.
    pub seed: u64,
    /// Run the reduced quick grid instead of the full one.
    pub quick: bool,
}

impl JobSpec {
    /// Builds a spec for one figure with the committed defaults.
    pub fn new(figure: &str) -> JobSpec {
        JobSpec {
            figure: figure.to_string(),
            seed: DEFAULT_SEED,
            quick: false,
        }
    }

    /// Parses and validates a spec document. Unknown fields are
    /// rejected: a typoed knob must not silently alias an existing
    /// cache entry.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or unknown field.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        let Json::Obj(fields) = doc else {
            return Err("spec must be a JSON object".to_string());
        };
        let mut figure = None;
        let mut seed = DEFAULT_SEED;
        let mut quick = false;
        for (key, value) in &fields {
            match (key.as_str(), value) {
                ("figure", Json::Str(s)) => figure = Some(s.clone()),
                ("figure", _) => return Err("\"figure\" must be a string".to_string()),
                ("seed", Json::U64(n)) => seed = *n,
                ("seed", _) => return Err("\"seed\" must be a non-negative integer".to_string()),
                ("quick", Json::Bool(b)) => quick = *b,
                ("quick", _) => return Err("\"quick\" must be a boolean".to_string()),
                (other, _) => {
                    return Err(format!(
                        "unknown spec field {other:?} (expected figure/seed/quick)"
                    ))
                }
            }
        }
        let figure = figure.ok_or_else(|| "spec is missing \"figure\"".to_string())?;
        Ok(JobSpec {
            figure,
            seed,
            quick,
        })
    }

    /// The spec in canonical document form — the request half of the
    /// cache key.
    pub fn canonical(&self) -> Json {
        Json::obj([
            ("figure", Json::Str(self.figure.clone())),
            ("quick", Json::Bool(self.quick)),
            ("seed", Json::U64(self.seed)),
        ])
        .canonical()
    }
}

/// A placeholder for configuration read from outside the spec. It
/// holds nothing and reads nothing: nothing outside the spec changes a
/// run. It exists only because the repository benchmark still builds a
/// [`cache_key`] with it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecKnobs;

impl ExecKnobs {
    /// The placeholder; reads no environment.
    pub fn from_env() -> ExecKnobs {
        ExecKnobs
    }
}

/// Content-address of a result: a digest over the canonical spec and
/// the code version (crate version plus the machine snapshot format
/// version, which moves whenever serialized machine state changes
/// shape).
pub fn cache_key(spec: &JobSpec, _knobs: &ExecKnobs) -> u128 {
    let doc = Json::obj([
        (
            "code_version",
            Json::Str(format!(
                "{}+snap{}",
                env!("CARGO_PKG_VERSION"),
                SNAPSHOT_VERSION
            )),
        ),
        ("spec", spec.canonical()),
    ]);
    doc.canonical_digest()
}

/// The cache file name for a key: 32 lowercase hex digits.
pub fn key_hex(key: u128) -> String {
    format!("{key:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_applies_defaults_and_rejects_junk() {
        let spec = JobSpec::parse(r#"{"figure": "fig7"}"#).unwrap();
        assert_eq!(spec, JobSpec::new("fig7"));
        let full = JobSpec::parse(r#"{"quick": true, "figure": "fig9", "seed": 7}"#).unwrap();
        assert_eq!(
            full,
            JobSpec {
                figure: "fig9".to_string(),
                seed: 7,
                quick: true
            }
        );
        assert!(JobSpec::parse("[1]").is_err());
        assert!(JobSpec::parse(r#"{"seed": 7}"#).is_err());
        assert!(JobSpec::parse(r#"{"figure": "fig7", "sede": 7}"#).is_err());
        assert!(JobSpec::parse(r#"{"figure": 7}"#).is_err());
        assert!(JobSpec::parse(r#"{"figure": "fig7", "seed": -1}"#).is_err());
    }

    #[test]
    fn key_ignores_spelling_but_not_content() {
        let a = JobSpec::parse(r#"{"figure": "fig7", "seed": 49374, "quick": false}"#).unwrap();
        let b = JobSpec::parse(r#"{  "quick":false,"seed":49374,  "figure":"fig7" }"#).unwrap();
        assert_eq!(cache_key(&a, &ExecKnobs), cache_key(&b, &ExecKnobs));

        let other_seed = JobSpec {
            seed: 42,
            ..a.clone()
        };
        let other_quick = JobSpec {
            quick: true,
            ..a.clone()
        };
        let other_figure = JobSpec {
            figure: "fig8".to_string(),
            ..a.clone()
        };
        let base = cache_key(&a, &ExecKnobs);
        assert_ne!(base, cache_key(&other_seed, &ExecKnobs));
        assert_ne!(base, cache_key(&other_quick, &ExecKnobs));
        assert_ne!(base, cache_key(&other_figure, &ExecKnobs));
    }

    #[test]
    fn key_hex_is_stable_width() {
        assert_eq!(key_hex(0).len(), 32);
        assert_eq!(key_hex(u128::MAX).len(), 32);
        assert_eq!(key_hex(0xAB), format!("{:0>32}", "ab"));
    }
}
