//! The backend registry and the capability matrix (the paper's Table 1 as
//! live code: the `experiments table1` command prints it from here).
//!
//! The registry maps a backend name to the Backend-QPM that runs its rows:
//! the one [`LocalRunner`] for every backend with a row the engine table
//! ([`crate::plan`]) runs in this process, and the cloud leg for `ionq`
//! when a provider is connected. What each row runs, and which rows are
//! pending, is the engine table's to say, not the registry's.

use crate::backends::{ionq::IonqBackend, local::LocalRunner, BackendQpm};
use crate::error::QfwError;
use crate::plan::Engine;
use qfw_cloud::CloudProvider;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One row of the capability matrix (Table 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Canonical backend name.
    pub backend: &'static str,
    /// Institutional origin as cited by the paper.
    pub origin: &'static str,
    /// Supported and declared sub-backends.
    pub subbackends: &'static [&'static str],
    /// CPU execution supported.
    pub cpu: bool,
    /// GPU support status (textual, as in Table 1's footnotes).
    pub gpu: &'static str,
    /// Native MPI support status.
    pub native_mpi: &'static str,
    /// Table 1 notes.
    pub notes: &'static str,
}

/// The registry mapping backend names to their QPM implementations.
pub struct BackendRegistry {
    backends: BTreeMap<&'static str, Arc<dyn BackendQpm>>,
}

impl BackendRegistry {
    /// Builds the standard five-backend registry of the paper. `cloud`
    /// supplies the IonQ-analog provider connection (omit to run without a
    /// cloud path).
    pub fn standard(cloud: Option<Arc<CloudProvider>>) -> Self {
        let local: Arc<dyn BackendQpm> = Arc::new(LocalRunner);
        let mut backends: BTreeMap<&'static str, Arc<dyn BackendQpm>> = Engine::local_backends()
            .map(|name| (name, Arc::clone(&local)))
            .collect();
        if let Some(provider) = cloud {
            backends.insert("ionq", Arc::new(IonqBackend::new(provider)));
        }
        BackendRegistry { backends }
    }

    /// Looks a backend up by name.
    pub fn get(&self, name: &str) -> Result<Arc<dyn BackendQpm>, QfwError> {
        self.backends
            .get(name)
            .cloned()
            .ok_or_else(|| QfwError::UnknownBackend(name.to_string()))
    }

    /// Registered backend names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.backends.keys().copied().collect()
    }

    /// The static capability matrix — Table 1.
    pub fn capability_matrix() -> Vec<Capabilities> {
        vec![
            Capabilities {
                backend: "tnqvm",
                origin: "ORNL",
                subbackends: &["exatn-mps", "ttn (pending)", "peps (planned)"],
                cpu: true,
                gpu: "engine-dependent via ExaTN build options",
                native_mpi: "engine-dependent",
                notes: "Tensor-network simulator; QFw wrapper selects topology. \
                        Tested with ExaTN-MPS; TTN blocked by .xasm vs qasm; \
                        PEPS architecturally supported.",
            },
            Capabilities {
                backend: "nwqsim",
                origin: "PNNL",
                subbackends: &["cpu", "openmp", "mpi"],
                cpu: true,
                gpu: "yes (HIP+MPI lacked complete upstream support)",
                native_mpi: "yes",
                notes: "SV-Sim fully integrated; sub-backends selectable at runtime.",
            },
            Capabilities {
                backend: "aer",
                origin: "Qiskit",
                subbackends: &["automatic", "statevector", "matrix_product_state", "stabilizer"],
                cpu: true,
                gpu: "CUDA by default; HIP/ROCm requires a custom build",
                native_mpi: "yes (chunking)",
                notes: "Strong single-node performance; tested with mps, \
                        statevector, and automatic.",
            },
            Capabilities {
                backend: "qtensor",
                origin: "ANL",
                subbackends: &["numpy", "sequential", "mpi", "cupy (planned)", "pytorch (planned)"],
                cpu: true,
                gpu: "planned (cupy/pytorch)",
                native_mpi: "via mpi4py",
                notes: "Tree TN (qtree); designed for QAOA expectation \
                        estimation, used in QFw for full-state contraction.",
            },
            Capabilities {
                backend: "ionq",
                origin: "cloud",
                subbackends: &["simulator", "hardware (planned)"],
                cpu: false,
                gpu: "n/a",
                native_mpi: "n/a",
                notes: "Integrated via a BackendV2-style plugin (REST under the hood).",
            },
        ]
    }

    /// Renders Table 1 as fixed-width text.
    pub fn render_capability_table() -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<7} {:<55} {:<5} {:<12}\n",
            "Backend", "Origin", "Sub-backend(s)", "CPU", "Native MPI"
        ));
        out.push_str(&"-".repeat(95));
        out.push('\n');
        for cap in Self::capability_matrix() {
            out.push_str(&format!(
                "{:<10} {:<7} {:<55} {:<5} {:<12}\n",
                cap.backend,
                cap.origin,
                cap.subbackends.join(", "),
                if cap.cpu { "yes" } else { "n/a" },
                cap.native_mpi,
            ));
            out.push_str(&format!("{:<10} notes: {}\n", "", cap.notes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_cloud::CloudConfig;

    #[test]
    fn standard_registry_has_local_backends() {
        let reg = BackendRegistry::standard(None);
        assert_eq!(reg.names(), vec!["aer", "nwqsim", "qtensor", "tnqvm"]);
        assert!(reg.get("nwqsim").is_ok());
        assert!(matches!(
            reg.get("ionq").err().unwrap(),
            QfwError::UnknownBackend(_)
        ));
    }

    #[test]
    fn cloud_registration_adds_ionq() {
        let provider = Arc::new(CloudProvider::start(CloudConfig::instant()));
        let reg = BackendRegistry::standard(Some(provider));
        assert!(reg.get("ionq").is_ok());
        assert_eq!(reg.names().len(), 5);
    }

    #[test]
    fn capability_matrix_covers_all_five() {
        let matrix = BackendRegistry::capability_matrix();
        assert_eq!(matrix.len(), 5);
        let names: Vec<_> = matrix.iter().map(|c| c.backend).collect();
        for n in ["tnqvm", "nwqsim", "aer", "qtensor", "ionq"] {
            assert!(names.contains(&n), "missing {n}");
        }
    }

    #[test]
    fn rendered_table_mentions_tested_subbackends() {
        let table = BackendRegistry::render_capability_table();
        for needle in ["exatn-mps", "matrix_product_state", "numpy", "simulator", "chunking"] {
            assert!(table.contains(needle), "table missing {needle}");
        }
    }

    #[test]
    fn registry_backends_report_consistent_names() {
        use crate::backends::testutil::{ghz_task, TestRig};
        use crate::spec::BackendSpec;
        let provider = Arc::new(CloudProvider::start(CloudConfig::instant()));
        let reg = BackendRegistry::standard(Some(Arc::clone(&provider)));
        let qrc = TestRig::new(1).qrc(Some(provider));
        for name in reg.names() {
            let result = qrc.execute(&ghz_task(3, 20, BackendSpec::of(name, ""))).unwrap();
            assert_eq!(result.backend, name);
        }
    }
}
