//! Quick calibration probe: the headline campaign comparison together
//! with the middleware counters behind it (critical/evaluated, flushes,
//! fetches, evictions, journal traffic), so the model parameters can be
//! sanity-checked against the paper's shapes. The figures themselves —
//! Fig. 1's sequential-vs-random shape included — come from `reproduce`.

use s4d_bench::{campaign_scripts, run_s4d, run_stock, testbed, Scale};
use s4d_cache::S4dConfig;

fn main() {
    let tb = testbed(0x54D);
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("calibrate: {e}");
        std::process::exit(2);
    });

    // --- Fig. 6 shape: campaign, stock vs s4d ---
    println!("-- Fig.6 probe: campaign (6 seq + 4 random), 32 procs --");
    for req_kib in [16u64, 4096] {
        let (cfg, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        let stock = run_stock(&tb, scripts, Vec::new());
        let (cfg2, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        assert_eq!(cfg.total_data_bytes(), cfg2.total_data_bytes());
        let capacity = cfg.total_data_bytes() / 5; // 20 %
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), scripts, Vec::new());
        println!(
            "  {req_kib:>5} KiB  stock write {:>8.1}  s4d write {:>8.1}  ({})   c_ops share {:.1}%",
            stock.write_mibs(),
            s4d.write_mibs(),
            s4d_bench::table::speedup_pct(stock.write_mibs(), s4d.write_mibs()),
            s4d.report.tiers.cserver_op_share(),
        );
        println!(
            "           stock read  {:>8.1}  s4d read  {:>8.1}  ({})",
            stock.read_mibs(),
            s4d.read_mibs(),
            s4d_bench::table::speedup_pct(stock.read_mibs(), s4d.read_mibs()),
        );
        println!(
            "           s4d metrics: critical {} / evaluated {}, cache writes {}, denied {}",
            s4d.metrics.critical,
            s4d.metrics.evaluated,
            s4d.metrics.writes_to_cache,
            s4d.metrics.admission_denied_space,
        );
        println!(
            "           flushes {} ({} MiB), fetches {}, evictions {} ({} MiB), journal {} writes ({} KiB), lazy {}",
            s4d.metrics.flushes,
            s4d.metrics.flushed_bytes >> 20,
            s4d.metrics.fetches,
            s4d.metrics.evictions,
            s4d.metrics.evicted_bytes >> 20,
            s4d.metrics.journal_writes,
            s4d.metrics.journal_bytes >> 10,
            s4d.metrics.lazy_marks,
        );
        println!(
            "           sim end {:.1}s stock / {:.1}s s4d; cap {} MiB",
            stock.report.end_time.as_secs_f64(),
            s4d.report.end_time.as_secs_f64(),
            capacity >> 20,
        );
    }
}
