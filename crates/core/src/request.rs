//! The typed compile request every surface parses into.
//!
//! `panorama compile|trace|exec` flags and `POST /compile` bodies are two
//! spellings of the same thing; each surface owns a small parser into
//! [`CompileRequest`] (the JSON one lives here, next to the struct; the
//! flag one in the CLI, because it reads files), and [`CompileRequest::run`]
//! is the one place a request becomes a [`PanoramaConfig`], a mapper list
//! and a compile. Names are resolved by the crate that owns them:
//! [`KernelId::parse`] / [`KernelScale::parse`], [`CgraConfig::preset`],
//! [`BackendId::parse`].

use crate::backend::{BackendId, MapperChoice};
use crate::pipeline::{CompileContext, CompileMode, Panorama, PanoramaConfig, PanoramaError};
use crate::report::CompileReport;
use panorama_analyze::AnalyzeConfig;
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_mapper::{CancelToken, LowerLevelMapper};
use panorama_trace::json::Json;
use panorama_trace::Tracer;

/// One compile, fully resolved: what to map, onto what, with which mapper
/// and pipeline settings.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The graph to map (a generated built-in kernel or parsed DFG text).
    pub dfg: Dfg,
    /// The architecture's name in reports: the preset, the ADL path, or
    /// whatever an inline-ADL request called it.
    pub arch_display: String,
    /// The architecture itself.
    pub arch: CgraConfig,
    /// Which mapper(s) run the conquer phase.
    pub mapper: MapperChoice,
    /// Map the whole array unguided instead of running Algorithm 1.
    pub baseline: bool,
    /// See [`PanoramaConfig::max_ii`].
    pub max_ii: Option<usize>,
    /// See [`PanoramaConfig::threads`].
    pub threads: usize,
    /// Run the pre-mapping optimizer with its default passes.
    pub analyze: bool,
}

impl CompileRequest {
    /// Parses a `/compile` body (or one `/compile-batch` entry). `threads`
    /// and `analyze` fall back to the given defaults when the request
    /// leaves them out; the architecture defaults to
    /// [`CgraConfig::DEFAULT_PRESET`], the mapper to SPR\*.
    ///
    /// # Errors
    ///
    /// A human-readable reason: a missing or doubly-specified graph, an
    /// unknown kernel, scale, preset or mapper name (`portfolio` is not a
    /// request-level mapper), unparseable DFG or ADL text, or a
    /// non-integer `max_ii` / `threads`.
    pub fn from_json(
        doc: &Json,
        default_threads: usize,
        default_analyze: bool,
    ) -> Result<CompileRequest, String> {
        let dfg = dfg_field(doc)?;
        let (arch_display, arch) = match arch_field(doc)? {
            Some(named) => named,
            None => {
                let preset = CgraConfig::DEFAULT_PRESET;
                (preset.to_string(), CgraConfig::preset(preset)?)
            }
        };
        let mapper = BackendId::parse(opt_str(doc, "mapper").unwrap_or(BackendId::Spr.name()))?;
        Ok(CompileRequest {
            dfg,
            arch_display,
            arch,
            mapper: MapperChoice::Backend(mapper),
            baseline: doc.get("baseline").and_then(Json::as_bool).unwrap_or(false),
            max_ii: opt_usize(doc, "max_ii")?,
            threads: opt_usize(doc, "threads")?.unwrap_or(default_threads),
            analyze: doc
                .get("analyze")
                .and_then(Json::as_bool)
                .unwrap_or(default_analyze),
        })
    }

    /// The pipeline configuration this request asks for.
    pub fn config(&self) -> PanoramaConfig {
        PanoramaConfig {
            max_ii: self.max_ii,
            threads: self.threads,
            analyze: self.analyze.then(AnalyzeConfig::default),
            ..PanoramaConfig::default()
        }
    }

    /// Compiles the request on `cgra` (built from [`arch`](Self::arch) by
    /// the caller, who may share it across requests) with
    /// default-configured mappers for [`mapper`](Self::mapper). Those live
    /// only for this call, so it cannot join a shared executor —
    /// [`run_with`](Self::run_with) can.
    ///
    /// # Errors
    ///
    /// As for [`Panorama::compile_with`].
    ///
    /// # Panics
    ///
    /// On a baseline portfolio request; surfaces reject that at parse time.
    pub fn run(
        &self,
        cgra: &Cgra,
        tracer: Option<&Tracer>,
        cancel: Option<&CancelToken>,
    ) -> Result<CompileReport, PanoramaError> {
        let owned: Vec<Box<dyn LowerLevelMapper>> = self
            .mapper
            .backends()
            .iter()
            .map(|id| id.mapper())
            .collect();
        let mappers: Vec<&dyn LowerLevelMapper> = owned.iter().map(|m| &**m).collect();
        let ctx = CompileContext {
            tracer,
            cancel,
            executor: None,
        };
        self.run_with(cgra, &mappers, &ctx)
    }

    /// [`run`](Self::run) with caller-owned mapper instances in place of
    /// the defaults — for a mapper whose state outlives the compile (the
    /// SAT attempt log) or that carries non-default settings (a time
    /// budget).
    ///
    /// # Errors
    ///
    /// As for [`Panorama::compile_with`].
    pub fn run_with<'env>(
        &self,
        cgra: &Cgra,
        mappers: &[&'env dyn LowerLevelMapper],
        ctx: &CompileContext<'_, 'env>,
    ) -> Result<CompileReport, PanoramaError> {
        let mode = if self.baseline {
            CompileMode::Baseline
        } else {
            CompileMode::Guided
        };
        Panorama::new(self.config()).compile_with(&self.dfg, cgra, mappers, mode, ctx)
    }
}

fn opt_str<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

/// The non-negative integer under `key`, `None` when absent.
///
/// # Errors
///
/// When the value is present but not a non-negative integer.
pub fn opt_usize(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
            Ok(Some(n as usize))
        }
    }
}

/// The graph a request names: `kernel` (a built-in, generated at `scale`,
/// default scaled) or `dfg` (inline text) — exactly one of them.
///
/// # Errors
///
/// See [`CompileRequest::from_json`].
pub fn dfg_field(doc: &Json) -> Result<Dfg, String> {
    let scale = opt_str(doc, "scale").map_or(Ok(KernelScale::default()), KernelScale::parse)?;
    match (opt_str(doc, "kernel"), opt_str(doc, "dfg")) {
        (Some(name), None) => Ok(kernels::generate(KernelId::parse(name)?, scale)),
        (None, Some(text)) => Dfg::from_text(text).map_err(|e| e.to_string()),
        (Some(_), Some(_)) => Err("give either `kernel` or `dfg`, not both".to_string()),
        (None, None) => Err("missing `kernel` (builtin name) or `dfg` (inline text)".to_string()),
    }
}

/// `(display name, config)` from `arch` (preset) / `arch_text` (inline
/// ADL, displayed as `arch` or `custom`); `None` when the request names no
/// architecture.
///
/// # Errors
///
/// See [`CompileRequest::from_json`].
pub fn arch_field(doc: &Json) -> Result<Option<(String, CgraConfig)>, String> {
    if let Some(text) = opt_str(doc, "arch_text") {
        let config = CgraConfig::from_text(text).map_err(|e| e.to_string())?;
        let display = opt_str(doc, "arch").unwrap_or("custom").to_string();
        return Ok(Some((display, config)));
    }
    let Some(preset) = opt_str(doc, "arch") else {
        return Ok(None);
    };
    let config = CgraConfig::preset(preset).map_err(|e| format!("{e} (use arch_text for ADL)"))?;
    Ok(Some((preset.to_string(), config)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_trace::json::{escape, parse};

    fn request(body: &str) -> Result<CompileRequest, String> {
        CompileRequest::from_json(&parse(body)?, 1, false)
    }

    #[test]
    fn defaults_fill_what_the_body_leaves_out() {
        let req = request("{\"kernel\":\"fir\"}").unwrap();
        assert_eq!(req.dfg.name(), "fir");
        assert_eq!(req.arch_display, "8x8");
        assert_eq!(req.arch, CgraConfig::scaled_8x8());
        assert_eq!(req.mapper, MapperChoice::Backend(BackendId::Spr));
        assert!(!req.baseline);
        assert_eq!(req.max_ii, None);
        assert_eq!(req.threads, 1, "the surface's default applies");
        assert!(!req.analyze);
        assert_eq!(req.config().threads, 1);
        assert_eq!(req.config().analyze, None);
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        // (unknown names: the CLI/JSON parity test in `src/main.rs`)
        for body in [
            "{\"kernel\":\"fir\",\"max_ii\":-1}",
            "{\"kernel\":\"fir\",\"threads\":1.5}",
            "{\"kernel\":\"fir\",\"dfg\":\"dfg t\"}",
            "{}",
            "not json",
        ] {
            assert!(request(body).is_err(), "{body}");
        }
    }

    #[test]
    fn per_request_fields_override_the_surface_defaults() {
        let doc = parse("{\"kernel\":\"fir\"}").unwrap();
        let req = CompileRequest::from_json(&doc, 4, true).unwrap();
        assert_eq!((req.threads, req.analyze), (4, true));
        let doc = parse("{\"kernel\":\"fir\",\"analyze\":false,\"threads\":2}").unwrap();
        let req = CompileRequest::from_json(&doc, 4, true).unwrap();
        assert_eq!((req.threads, req.analyze), (2, false));
        assert!(request("{\"kernel\":\"fir\",\"analyze\":true}")
            .unwrap()
            .config()
            .analyze
            .is_some());
    }

    #[test]
    fn max_ii_caps_every_backend() {
        // fir/tiny on 4x4 through each backend: a cap at the achieved II
        // changes nothing, a cap one below it (where the static check still
        // lets the request through) ends the search at or below the cap
        for id in [BackendId::Spr, BackendId::UltraFast, BackendId::Sat] {
            let run = |cap: Option<usize>| {
                let cap = cap.map_or(String::new(), |c| format!(",\"max_ii\":{c}"));
                let req = request(&format!(
                    "{{\"kernel\":\"fir\",\"scale\":\"tiny\",\"arch\":\"4x4\",\"mapper\":\"{}\"{cap}}}",
                    id.name()
                ))
                .unwrap();
                req.run(&Cgra::new(req.arch.clone()).unwrap(), None, None)
            };
            let free = run(None).unwrap();
            let (ii, mii) = (free.mapping().ii(), free.mapping().mii());
            let at_achieved = run(Some(ii)).unwrap();
            assert_eq!(
                at_achieved.mapping().content_hash(),
                free.mapping().content_hash(),
                "{id:?}"
            );
            if ii > mii {
                match run(Some(ii - 1)) {
                    Err(PanoramaError::Mapping(e)) => {
                        assert!(e.max_ii_tried < ii && !e.cancelled, "{id:?}: {e}");
                    }
                    other => panic!(
                        "{id:?}: cap {} ignored: {:?}",
                        ii - 1,
                        other.map(|r| r.mapping().ii())
                    ),
                }
            }
        }
    }

    #[test]
    fn inline_dfg_text_round_trips() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let body = format!(
            "{{\"dfg\":\"{}\",\"arch\":\"4x4\"}}",
            escape(&dfg.to_text())
        );
        let req = request(&body).unwrap();
        assert_eq!(req.dfg.name(), dfg.name());
        assert_eq!(req.arch_display, "4x4");
    }
}
