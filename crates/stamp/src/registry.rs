//! Benchmark registry: the seven STAMP applications by name.

use gstm_guide::Workload;

use crate::size::InputSize;
use crate::{Genome, Intruder, Kmeans, Labyrinth, Ssca2, Vacation, Yada};

/// Names of the STAMP applications this suite reproduces, in the paper's
/// table order. (`bayes` is excluded: it seg-faulted in the paper's own
/// experiments, §VII.)
pub const BENCHMARK_NAMES: [&str; 7] =
    ["genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada"];

/// Instantiates a benchmark by name at the given input size.
///
/// Returns `None` for unknown names; see [`BENCHMARK_NAMES`].
pub fn benchmark(name: &str, size: InputSize) -> Option<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "genome" => Box::new(Genome::with_size(size)),
        "intruder" => Box::new(Intruder::with_size(size)),
        "kmeans" => Box::new(Kmeans::with_size(size)),
        "labyrinth" => Box::new(Labyrinth::with_size(size)),
        "ssca2" => Box::new(Ssca2::with_size(size)),
        "vacation" => Box::new(Vacation::with_size(size)),
        "yada" => Box::new(Yada::with_size(size)),
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_names() {
        for name in BENCHMARK_NAMES {
            let w = benchmark(name, InputSize::Small).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(w.name(), name);
        }
        assert!(benchmark("bayes", InputSize::Small).is_none());
    }
}
