//! # dsbn-bench — experiment harness
//!
//! Shared machinery for the `exp_*` binaries that regenerate every table
//! and figure of the paper (each binary's header names the table or
//! figure it reproduces):
//!
//! - [`args`] — `--key value` CLI parsing.
//! - [`output`] — CSV + markdown result tables under `results/`.
//! - [`runner`] — checkpointed sweeps over the paper's three metrics
//!   (error to truth, error to MLE, communication), cluster runs, and the
//!   `--scale small|medium|paper` stream-size presets.
//!
//! Speed is measured by the repo benchmark in `benchmark/`, not here.

pub mod args;
pub mod output;
pub mod runner;

pub use args::Args;
pub use output::{json, Table};
pub use runner::{
    checkpoints_for_scale, cluster_run, sweep_network, sweep_networks, CheckpointRecord,
    SweepConfig,
};

use dsbn_bayes::{BayesianNetwork, NetworkSpec};

/// Resolve `--nets alarm,hepar2,...` names into generated networks
/// (`new-alarm` resolves to the §VI-B NEW-ALARM construction, `sprinkler`
/// to the fixed 4-node fixture).
pub fn resolve_networks(names: &[String], seed: u64) -> Vec<BayesianNetwork> {
    names
        .iter()
        .map(|name| match name.to_ascii_lowercase().as_str() {
            "sprinkler" => dsbn_bayes::sprinkler_network(),
            "new-alarm" | "newalarm" => {
                dsbn_bayes::new_alarm(seed).expect("new-alarm generation failed")
            }
            other => match NetworkSpec::by_name(other) {
                Some(spec) => spec.generate(seed).expect("network generation failed"),
                None => {
                    eprintln!(
                        "error: unknown network {name:?} \
                         (sprinkler|alarm|hepar2|link|munin|new-alarm|munin-stress|big<N>)"
                    );
                    std::process::exit(2);
                }
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_presets() {
        let nets = resolve_networks(&["alarm".into(), "new-alarm".into(), "sprinkler".into()], 1);
        assert_eq!(nets.len(), 3);
        assert_eq!(nets[0].n_vars(), 37);
        assert_eq!(nets[1].n_vars(), 37);
        assert_eq!(nets[2].n_vars(), 4);
    }
}
