//! The `panorama-exec-v1` report: a deterministic JSON document
//! describing one data-level execution of a kernel's configware.
//!
//! Reports are timestamp-free and byte-identical across runs with the
//! same inputs, so CI can gate determinism with a plain `cmp` of two
//! runs. `panorama lint --report` validates them via the EXEC lint
//! codes.

use crate::ExecOutcome;
use panorama_trace::json::Writer;
use panorama_trace::schema;

/// Renders `outcome` as a `panorama-exec-v1` JSON document.
///
/// `kernel`, `arch` and `mapper` identify the compiled artifact; they
/// appear verbatim (escaped) in the report.
pub fn exec_report_json(kernel: &str, arch: &str, mapper: &str, outcome: &ExecOutcome) -> String {
    let mut w = Writer::new(&schema::EXEC);
    w.key("kernel").str(kernel);
    w.key("arch").str(arch);
    w.key("mapper").str(mapper);
    w.key("ii").uint(outcome.ii);
    w.key("iterations").uint(outcome.iterations);
    w.key("seed").uint(outcome.seed);
    w.key("ops").uint(outcome.ops);
    w.key("stores").uint(outcome.stores);
    let status = if outcome.passed() { "pass" } else { "fail" };
    w.key("status").str(status);
    w.key("checked").uint(outcome.checked_total());
    w.key("vectors").open();
    for v in &outcome.vectors {
        w.open();
        w.key("vector").str(v.vector);
        w.key("checked").uint(v.checked);
        w.key("output_tokens").uint(v.output_tokens);
        w.key("output_digest")
            .str(&format!("{:#018x}", v.output_digest));
        match &v.divergence {
            Some(message) => w.key("divergence").str(message),
            None => w.key("divergence").null(),
        }
        w.close();
    }
    w.close();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, ExecOptions};
    use panorama_arch::{Cgra, CgraConfig};
    use panorama_dfg::{kernels, KernelId, KernelScale};
    use panorama_mapper::{LowerLevelMapper, SprMapper};

    #[test]
    fn report_is_deterministic_and_tagged() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let opts = ExecOptions::default();
        let a = execute(&dfg, &cgra, &mapping, &opts).unwrap();
        let b = execute(&dfg, &cgra, &mapping, &opts).unwrap();
        let ja = exec_report_json("fir", "4x4", "spr", &a);
        let jb = exec_report_json("fir", "4x4", "spr", &b);
        assert_eq!(ja, jb, "same seed must render byte-identically");
        assert!(ja.contains("\"schema\": \"panorama-exec-v1\""));
        assert!(ja.contains("\"status\": \"pass\""));
        assert!(ja.contains("\"vector\": \"seeded\""));
        assert!(ja.contains("\"vector\": \"i32-max\""));
    }
}
