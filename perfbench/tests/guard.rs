//! The benchmark refuses to measure a program the environment has changed.

use std::process::Command;

#[test]
fn refuses_fault_plans_and_disabled_memoization() {
    for var in ["PAXSIM_FAULTS", "PAXSIM_DISABLE_MEMO"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "serve-hot", "--seed", "1", "--seconds", "1"])
            .args(["--trace", "0"])
            .env(var, "1")
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{var} must be refused");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
    }
}
