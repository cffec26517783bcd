//! Engine observability: per-phase job and cache counters, serialisable
//! through serde and renderable as a CLI summary.
//!
//! Each [`crate::pass::AnalysisPass`] records its phases into a private
//! ledger while running; the pipeline runner merges them here in pass
//! registration order, so a DAG run reads like a sequential one.

use serde::{Deserialize, Serialize};

/// Counters of one engine phase (e.g. `graph-facts`, `graph-rows`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase name.
    pub name: String,
    /// Wall time spent in the phase, milliseconds.
    pub wall_ms: f64,
    /// Work units the phase covered (cached + executed).
    pub jobs_total: usize,
    /// Work units actually executed (the cache misses).
    pub jobs_executed: usize,
    /// Artefacts served from the cache.
    pub cache_hits: usize,
    /// Artefacts that had to be recomputed.
    pub cache_misses: usize,
    /// Jobs that panicked once and were retried successfully.
    pub retries: usize,
    /// Wall-clock milliseconds of the slowest executed job; `0` when the
    /// phase was served entirely from the cache.
    pub max_job_ms: f64,
    /// Jobs that exceeded the configured per-job deadline (their results
    /// were kept, but the run counts as degraded).
    pub timed_out: usize,
}

impl PhaseStats {
    /// A named, zeroed phase record.
    pub fn new(name: impl Into<String>) -> Self {
        PhaseStats { name: name.into(), ..PhaseStats::default() }
    }
}

/// Cumulative engine statistics across one or more analyses.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Per-phase counters, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Entries change-driven invalidation (`rerun`) dropped from the
    /// store's memory. A fresh process holds none before its first
    /// lookup, so a one-shot `decisive rerun` reports 0.
    pub invalidated_keys: usize,
    /// Persisted cache entries that failed checksum or shape validation
    /// on load and were quarantined (then recomputed).
    pub quarantined_entries: usize,
}

impl EngineStats {
    /// Appends a finished phase record.
    pub fn record(&mut self, phase: PhaseStats) {
        self.phases.push(phase);
    }

    /// The phase named `name`, if recorded (last occurrence wins).
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().rev().find(|p| p.name == name)
    }

    /// Total work units across all phases.
    pub fn jobs_total(&self) -> usize {
        self.phases.iter().map(|p| p.jobs_total).sum()
    }

    /// Work units actually executed across all phases.
    pub fn jobs_executed(&self) -> usize {
        self.phases.iter().map(|p| p.jobs_executed).sum()
    }

    /// Cache hits across all phases.
    pub fn cache_hits(&self) -> usize {
        self.phases.iter().map(|p| p.cache_hits).sum()
    }

    /// Cache misses across all phases.
    pub fn cache_misses(&self) -> usize {
        self.phases.iter().map(|p| p.cache_misses).sum()
    }

    /// Overall hit rate in `[0, 1]`; `0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits() + self.cache_misses();
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / lookups as f64
        }
    }

    /// A compact human-readable summary for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.phases {
            let _ = writeln!(
                out,
                "# phase {:<14} {:>7.2} ms  jobs {}/{}  hits {}  misses {}{}{}",
                p.name,
                p.wall_ms,
                p.jobs_executed,
                p.jobs_total,
                p.cache_hits,
                p.cache_misses,
                if p.retries > 0 { format!("  retries {}", p.retries) } else { String::new() },
                match (p.max_job_ms > 0.0, p.timed_out > 0) {
                    (true, true) => {
                        format!("  max-job {:.2} ms  timed-out {}", p.max_job_ms, p.timed_out)
                    }
                    (true, false) => format!("  max-job {:.2} ms", p.max_job_ms),
                    (false, true) => format!("  timed-out {}", p.timed_out),
                    (false, false) => String::new(),
                },
            );
        }
        let _ = writeln!(
            out,
            "# cache hit rate {:.1}% ({} hits / {} lookups), {} key(s) invalidated{}",
            self.hit_rate() * 100.0,
            self.cache_hits(),
            self.cache_hits() + self.cache_misses(),
            self.invalidated_keys,
            if self.quarantined_entries > 0 {
                format!(", {} entr(ies) quarantined", self.quarantined_entries)
            } else {
                String::new()
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_hit_rate() {
        let mut stats = EngineStats::default();
        stats.record(PhaseStats {
            name: "graph-facts".into(),
            jobs_total: 4,
            jobs_executed: 1,
            cache_hits: 3,
            cache_misses: 1,
            ..PhaseStats::default()
        });
        stats.record(PhaseStats {
            name: "graph-rows".into(),
            jobs_total: 10,
            jobs_executed: 2,
            cache_hits: 8,
            cache_misses: 2,
            ..PhaseStats::default()
        });
        assert_eq!(stats.jobs_total(), 14);
        assert_eq!(stats.jobs_executed(), 3);
        assert!((stats.hit_rate() - 11.0 / 14.0).abs() < 1e-12);
        assert_eq!(stats.cache_hits(), 11);
        assert!(stats.render().contains("graph-rows"));
    }

    #[test]
    fn empty_stats_have_zero_hit_rate() {
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
    }
}
