//! Trial planning: expand an experiment × profile into its trials.
//!
//! The matrix driver plans one cell per corpus scenario × pipeline, every
//! other driver one `-/-` cell, and each cell is multiplied by the
//! experiment's variants (one unnamed `-` variant when it has none).

use crate::lab::spec::{Driver, ExperimentSpec, Params, Variant};

/// One fully-resolved unit of work.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Experiment (spec) name.
    pub experiment: String,
    pub driver: Driver,
    /// Matrix scenario name, `"-"` for drivers without that dimension.
    pub scenario: String,
    /// Matrix pipeline name, `"-"` when unused.
    pub pipeline: String,
    /// Variant name, `"-"` when the experiment has no variants.
    pub variant: String,
    /// Repetition index, `0..reps`.
    pub rep: u64,
    /// Base params with the profile and variant overlays applied.
    pub params: Params,
}

impl Trial {
    /// Stable row identifier: `experiment/scenario/pipeline/variant#rep`.
    /// This is the key the gate joins baseline and candidate rows on.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}#{}",
            self.experiment, self.scenario, self.pipeline, self.variant, self.rep
        )
    }
}

/// Expand one experiment under one profile into its trials.
///
/// Unknown profile names return an empty plan — the caller distinguishes
/// "experiment does not define this profile" (skip) from "no experiment
/// defines it" (error) by summing across experiments.
pub fn plan(spec: &ExperimentSpec, profile: &str) -> Vec<Trial> {
    let Some(overlay) = spec.profiles.get(profile) else {
        return Vec::new();
    };
    let base = spec.params.overlaid(overlay);
    let cells: Vec<(String, String)> = if spec.driver == Driver::Matrix {
        let pipelines = scenarios::all_pipelines();
        scenarios::corpus()
            .iter()
            .flat_map(|sc| {
                pipelines
                    .iter()
                    .map(|p| (sc.name.to_string(), p.name().to_string()))
            })
            .collect()
    } else {
        vec![("-".to_string(), "-".to_string())]
    };
    let unnamed = [Variant {
        name: "-",
        params: Params::default(),
    }];
    let variants = if spec.variants.is_empty() {
        &unnamed[..]
    } else {
        &spec.variants
    };
    let mut out = Vec::new();
    for (scenario, pipeline) in &cells {
        for v in variants {
            out.push(Trial {
                experiment: spec.name.to_string(),
                driver: spec.driver,
                scenario: scenario.clone(),
                pipeline: pipeline.clone(),
                variant: v.name.to_string(),
                rep: 0,
                params: base.overlaid(&v.params),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::results::LabReport;
    use crate::lab::spec::{experiments, ParamValue};
    use std::path::Path;

    fn experiment(name: &str) -> ExperimentSpec {
        experiments()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no experiment {name:?}"))
    }

    #[test]
    fn profile_and_variant_params_overlay_in_order() {
        // Variant params beat profile params, which beat the base params.
        let mut serve = experiment("serve");
        let packed_params = &mut serve.variants[1].params.0;
        packed_params.insert("queries".into(), ParamValue::Int(7));
        let trials = plan(&serve, "full");
        let [flat, packed] = &trials[..] else {
            panic!("serve plans one trial per layout");
        };
        assert_eq!(plan(&serve, "quick")[0].params.usize("queries", 0), 50_000);
        assert_eq!(flat.params.usize("queries", 0), 1_000_000);
        assert_eq!(packed.params.usize("queries", 0), 7);
        assert_eq!(packed.params.str("layout", ""), "packed");
        assert_eq!(packed.params.u64("seed", 0), 7);
        assert_eq!(packed.id(), "serve/-/-/packed#0");
        // Every trial of the table resolves in that order.
        for spec in experiments() {
            for (profile, overlay) in &spec.profiles {
                for t in plan(&spec, profile) {
                    let variant = spec.variants.iter().find(|v| v.name == t.variant);
                    let mut want = spec.params.overlaid(overlay);
                    if let Some(v) = variant {
                        want = want.overlaid(&v.params);
                    }
                    assert_eq!(t.params, want, "{} {profile}", t.id());
                }
            }
        }
    }

    #[test]
    fn matrix_defaults_to_the_full_registry() {
        let trials = plan(&experiment("scenarios"), "quick");
        let cells = scenarios::corpus().len() * scenarios::all_pipelines().len();
        assert_eq!(trials.len(), cells);
        assert!(trials.iter().all(|t| t.variant == "-" && t.rep == 0));
    }

    #[test]
    fn unknown_profile_plans_nothing() {
        for spec in experiments() {
            assert!(plan(&spec, "galactic").is_empty(), "{}", spec.name);
        }
    }

    #[test]
    fn quick_plan_matches_the_committed_baselines() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let specs = experiments();
        assert!(
            specs.windows(2).all(|w| w[0].name < w[1].name),
            "sorted, distinct names"
        );
        for spec in &specs {
            let path = root.join(format!("BENCH_{}.json", spec.name));
            let baseline =
                LabReport::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let planned: Vec<String> = plan(spec, "quick").iter().map(Trial::id).collect();
            let blessed: Vec<&str> = baseline.rows.iter().map(|r| r.id.as_str()).collect();
            assert_eq!(
                planned, blessed,
                "{}: quick plan vs baseline rows",
                spec.name
            );
        }
        for entry in std::fs::read_dir(&root).unwrap() {
            let file = entry.unwrap().file_name().to_string_lossy().into_owned();
            if let Some(name) = file
                .strip_prefix("BENCH_")
                .and_then(|f| f.strip_suffix(".json"))
            {
                assert!(
                    specs.iter().any(|s| s.name == name),
                    "{file} names no experiment"
                );
            }
        }
        for spec in &specs {
            for profile in spec.profiles.keys() {
                let mut ids: Vec<String> = plan(spec, profile).iter().map(Trial::id).collect();
                let planned = ids.len();
                ids.sort();
                ids.dedup();
                assert!(planned > 0, "{} {profile} plans no trial", spec.name);
                assert_eq!(
                    ids.len(),
                    planned,
                    "{} {profile} repeats a trial id",
                    spec.name
                );
            }
        }
    }
}
