//! **Figure 6.7** — MapReduce wall-clock time per pass on the im
//! stand-in, for ε ∈ {0, 1, 2}.
//!
//! Paper finding: per-pass time decays steeply with the pass index
//! (cost ∝ surviving edges), and larger ε finishes in fewer passes. The
//! thread-pool simulator reproduces the decay shape; absolute times are
//! laptop-scale rather than 2000-node-Hadoop-scale.

use std::time::Duration;

use dsg_datasets::{im_standin, Scale};
use dsg_mapreduce::{mr_densest_undirected, MapReduceConfig};

use crate::table::{fmt_f, Table};

/// ε values of Figure 6.7.
pub const EPSILONS: [f64; 3] = [0.0, 1.0, 2.0];

/// One per-pass timing series.
#[derive(Clone, Debug)]
pub struct Series {
    /// ε value.
    pub epsilon: f64,
    /// `(pass, wall_time, live_edges)` rows.
    pub passes: Vec<(u32, Duration, u64)>,
    /// Best density found.
    pub best_density: f64,
}

/// Runs the MapReduce driver on the im stand-in for each ε.
pub fn run(scale: Scale) -> Vec<Series> {
    let list = im_standin(scale);
    let splits = 16usize;
    let chunk = (list.edges.len() / splits).max(1);
    let edge_splits: Vec<&[(u32, u32)]> = list.edges.chunks(chunk).collect();
    let config = MapReduceConfig::default();
    EPSILONS
        .iter()
        .map(|&eps| {
            let r = mr_densest_undirected(&config, list.num_nodes, &edge_splits, eps);
            Series {
                epsilon: eps,
                passes: r
                    .reports
                    .iter()
                    .map(|p| (p.pass, p.wall_time, p.edges))
                    .collect(),
                best_density: r.best_density,
            }
        })
        .collect()
}

/// Renders the series as a table.
pub fn to_table(series: &[Series]) -> Table {
    let mut t = Table::new(
        "Figure 6.7: MapReduce time per pass on the im stand-in",
        &["ε", "pass", "time (ms)", "live edges"],
    );
    for s in series {
        for &(pass, time, edges) in &s.passes {
            t.push_row(vec![
                fmt_f(s.epsilon, 1),
                pass.to_string(),
                fmt_f(time.as_secs_f64() * 1000.0, 2),
                edges.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_pass_cost_tracks_surviving_edges() {
        let series = run(Scale::Tiny);
        assert_eq!(series.len(), 3);
        for s in &series {
            assert!(s.best_density > 0.0);
            // Edge volume decays monotonically.
            for w in s.passes.windows(2) {
                assert!(w[1].2 <= w[0].2);
            }
        }
        // Larger ε -> fewer passes.
        assert!(series[2].passes.len() <= series[0].passes.len());
    }
}
