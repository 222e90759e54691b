//! Input-size presets.
//!
//! STAMP ships small/medium/large data sets per benchmark; the paper trains
//! models on **medium** and (per the artifact's default workflow) tests on
//! **small**, so those are the two presets here. Our generators are seeded
//! and synthetic, sized so a full experiment sweep (7 benchmarks × 2 thread
//! counts × 20 seeds × 2 policies) completes in CI time on the simulated
//! machine.

use std::fmt;

/// Workload size preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum InputSize {
    /// Test size (the artifact's default for guided/default runs).
    #[default]
    Small,
    /// Training size (the artifact's default for model generation).
    Medium,
}

impl InputSize {
    /// Picks the `small` or `medium` value.
    pub(crate) fn pick(self, small: usize, medium: usize) -> usize {
        match self {
            InputSize::Small => small,
            InputSize::Medium => medium,
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InputSize::Small => "small",
            InputSize::Medium => "medium",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_size() {
        assert_eq!(InputSize::Small.pick(1, 2), 1);
        assert_eq!(InputSize::Medium.pick(1, 2), 2);
    }

    /// Every STAMP run's cache key embeds these labels.
    #[test]
    fn labels_are_pinned() {
        assert_eq!(InputSize::Small.to_string(), "small");
        assert_eq!(InputSize::Medium.to_string(), "medium");
    }
}
