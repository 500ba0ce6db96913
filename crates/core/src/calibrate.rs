//! Section 3 platform calibration: run the LMbench-style probes on the
//! simulator and compare against the numbers the paper measured on the
//! real PowerEdge 2850.

use paxsim_lmbench::{probe, PlatformNumbers, PROBES};
use paxsim_machine::config::MachineConfig;

use crate::pool;
use crate::tune::nan_last_cmp;

/// The paper's measured values (Section 3; see DESIGN.md §5 for the
/// reconstruction of OCR-damaged digits).
#[derive(Debug, Clone, Copy)]
pub struct PaperPlatform {
    pub l1_ns: f64,
    pub l2_ns: f64,
    pub mem_ns: f64,
    pub read_bw_1chip: f64,
    pub write_bw_1chip: f64,
    pub read_bw_2chip: f64,
    pub write_bw_2chip: f64,
}

pub const PAPER_PLATFORM: PaperPlatform = PaperPlatform {
    l1_ns: 1.43,
    l2_ns: 11.4,
    mem_ns: 136.85,
    read_bw_1chip: 3.57,
    write_bw_1chip: 1.77,
    read_bw_2chip: 4.43,
    write_bw_2chip: 2.6,
};

/// One calibration check.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub paper: f64,
    pub measured: f64,
}

impl CalibrationRow {
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper
    }
}

/// Full calibration report.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    pub rows: Vec<CalibrationRow>,
    pub measured: PlatformNumbers,
}

impl CalibrationReport {
    /// True when every row is within `tol` relative error.
    pub fn within(&self, tol: f64) -> bool {
        self.rows.iter().all(|r| r.rel_err() <= tol)
    }

    /// The row with the largest relative error. A NaN error (a probe that
    /// measured nothing) ranks last, so it is reported only when no row
    /// has a real error.
    pub fn worst(&self) -> &CalibrationRow {
        self.rows
            .iter()
            .max_by(|a, b| nan_last_cmp(a.rel_err(), b.rel_err()))
            .expect("non-empty report")
    }
}

/// Run all Section 3 probes, in parallel on the pool, and compare against
/// the paper.
pub fn calibrate(cfg: &MachineConfig) -> CalibrationReport {
    let probes = pool::map_indexed(PROBES, |i| probe(cfg, i));
    let m = PlatformNumbers::from_probes(probes.try_into().expect("one result per probe"));
    let p = PAPER_PLATFORM;
    let rows = vec![
        CalibrationRow {
            name: "L1 latency",
            unit: "ns",
            paper: p.l1_ns,
            measured: m.l1_ns,
        },
        CalibrationRow {
            name: "L2 latency",
            unit: "ns",
            paper: p.l2_ns,
            measured: m.l2_ns,
        },
        CalibrationRow {
            name: "Memory latency",
            unit: "ns",
            paper: p.mem_ns,
            measured: m.mem_ns,
        },
        CalibrationRow {
            name: "Read BW, 1 chip",
            unit: "GB/s",
            paper: p.read_bw_1chip,
            measured: m.read_bw_1chip,
        },
        CalibrationRow {
            name: "Write BW, 1 chip",
            unit: "GB/s",
            paper: p.write_bw_1chip,
            measured: m.write_bw_1chip,
        },
        CalibrationRow {
            name: "Read BW, 2 chips",
            unit: "GB/s",
            paper: p.read_bw_2chip,
            measured: m.read_bw_2chip,
        },
        CalibrationRow {
            name: "Write BW, 2 chips",
            unit: "GB/s",
            paper: p.write_bw_2chip,
            measured: m.write_bw_2chip,
        },
    ];
    CalibrationReport { rows, measured: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paxville_calibrates_within_15_percent() {
        let report = calibrate(&MachineConfig::paxville_smp());
        assert!(
            report.within(0.15),
            "worst row: {:?} (rel err {:.1}%)",
            report.worst(),
            report.worst().rel_err() * 100.0
        );
    }

    #[test]
    fn detuned_machine_fails_calibration() {
        let mut cfg = MachineConfig::paxville_smp();
        cfg.mem_lat *= 3;
        let report = calibrate(&cfg);
        assert!(
            !report.within(0.15),
            "tripled memory latency must be caught"
        );
    }

    #[test]
    fn worst_ranks_nan_row_last() {
        let mut report = calibrate(&MachineConfig::paxville_smp());
        let real_worst = report.worst().name;
        report.rows[0].measured = f64::NAN;
        assert!(report.rows[0].rel_err().is_nan());
        let worst = report.worst();
        assert!(
            worst.rel_err().is_finite(),
            "NaN row must not win: {worst:?}"
        );
        let expected = if real_worst == report.rows[0].name {
            // The NaN replaced the old worst: the runner-up takes over.
            report.rows[1..]
                .iter()
                .max_by(|a, b| a.rel_err().total_cmp(&b.rel_err()))
                .unwrap()
                .name
        } else {
            real_worst
        };
        assert_eq!(worst.name, expected);
        for row in &mut report.rows {
            row.measured = f64::NAN;
        }
        assert!(report.worst().rel_err().is_nan(), "all-NaN still answers");
    }

    #[test]
    fn parallel_probes_match_sequential_platform_numbers() {
        let cfg = MachineConfig::paxville_smp();
        let seq = paxsim_lmbench::platform_numbers(&cfg);
        let par = calibrate(&cfg).measured;
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn rows_cover_all_section3_numbers() {
        let report = calibrate(&MachineConfig::paxville_smp());
        assert_eq!(report.rows.len(), 7);
    }
}
