//! The method registry shared by the experiment binaries.

use simgpu::Tuner;

/// All per-operator methods in the paper's comparisons, in display order.
pub fn all_tuners() -> Vec<Box<dyn Tuner>> {
    vec![
        Box::new(search::VendorLib),
        Box::new(search::Ansor::default()),
        Box::new(roller::Roller::default()),
        Box::new(gensor::Gensor::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_papers_methods() {
        let names: Vec<_> = all_tuners().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["cuBLAS", "Ansor", "Roller", "Gensor"]);
    }
}
