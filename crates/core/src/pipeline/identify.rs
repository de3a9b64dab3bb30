//! Stage 1 — the Data Identifier (§III.C).
//!
//! Classifies each request with the cost model (or the configured
//! ablation policy), inserts critical ranges into the CDT, and resolves
//! the request's cache file. The emitted [`RequestCtx`] is the typed
//! input of the redirect and admit stages.

use s4d_mpiio::AppRequest;

use crate::config::AdmissionPolicy;
use crate::layer::S4dCache;
use crate::pipeline::RequestCtx;

impl S4dCache {
    /// Classifies a request per the configured admission policy, inserting
    /// critical ranges into the CDT (the Data Identifier, §III.C).
    pub(crate) fn identify(&mut self, req: &AppRequest) -> RequestCtx {
        self.metrics.evaluated += 1;
        let benefit = self
            .evaluator
            .evaluate((req.rank.0, req.file.0), req.offset, req.len);
        let critical = match self.config.admission {
            AdmissionPolicy::Benefit => benefit.is_critical(),
            AdmissionPolicy::AlwaysAdmit => true,
            AdmissionPolicy::NeverAdmit => false,
            AdmissionPolicy::SizeBelow(t) => req.len < t,
        };
        if critical {
            self.metrics.critical += 1;
            // Routed by the request's start offset — the same key the
            // Rebuilder's flagged-candidate scan uses.
            self.plane.cdt_insert(req.file, req.offset, req.len);
        }
        RequestCtx {
            critical,
            // Shard 0's cache file doubles as the "opened through the
            // middleware" marker; per-gap files are resolved at admission.
            cache: self
                .cache_file_of
                .get(&req.file)
                .and_then(|files| files.first())
                .copied(),
            predicted_secs: benefit.t_d_secs.max(benefit.t_c_secs),
        }
    }
}
