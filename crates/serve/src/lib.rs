//! `panorama-serve`: the PANORAMA compile daemon.
//!
//! Exposes the compilation pipeline as a long-lived service so iterative
//! DSE loops amortise process startup and MRRG construction across
//! requests instead of paying them per invocation:
//!
//! * `POST /compile` — map a kernel; the response body is byte-identical
//!   to `panorama compile --json` for the same inputs;
//! * `POST /compile-batch` — map up to 64 kernels in one request
//!   (`panorama-serve-batch-v1`); each entry's result is byte-identical
//!   to the `/compile` equivalent, because a `/compile` *is* a one-entry
//!   batch — both endpoints queue the same job through the same code;
//! * `POST /lint` — run the static mappability prechecker;
//! * `GET /healthz` — liveness probe;
//! * `GET /metrics` — queue depth, shed/cancel counts, cache hit rates,
//!   per-phase latency percentiles (`panorama-serve-metrics-v2`);
//! * `POST /admin/shutdown` — loopback-only graceful drain.
//!
//! Zero dependencies beyond `std` and the workspace crates: HTTP framing
//! is [`http`], backpressure is [`queue`], replay is [`cache`] over
//! [`diskcache`] (both bounded by [`panorama_arch::Lru`]), and accounting
//! is [`metrics`]. The daemon itself lives in [`server`].

pub mod cache;
pub mod diskcache;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod quota;
pub mod server;

pub use cache::{ContentHash, ResultCache};
pub use diskcache::{DiskCache, DiskCacheStats};
pub use metrics::{CacheStats, Metrics};
pub use queue::{JobQueue, PushError};
pub use quota::{Quota, QuotaStats, TenantStats, TENANT_HEADER};
pub use server::{DrainHandle, ServeConfig, Server, MAX_BATCH_ENTRIES};
