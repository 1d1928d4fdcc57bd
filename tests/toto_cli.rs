//! The `toto` command line rejects bad input with exit code 2 and never
//! panics; a run that fails its K-S oracle gate exits 1. The table
//! drives `toto_scenario::cli::main`, the function the binary calls.
//! Every case that could start a run writes under the temporary `--out`,
//! which must stay empty.

use std::fs;
use std::panic::catch_unwind;

#[test]
fn bad_input_exits_2_and_failed_runs_exit_1_without_panicking() {
    let dir = std::env::temp_dir().join(format!("toto-cli-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let file = |name: &str, text: &str| {
        let path = dir.join(name);
        fs::write(&path, text).expect("write input");
        path.display().to_string()
    };
    let region = "[scenario]\nname = \"r\"\nkind = \"region\"\n[region]\n";
    let malformed_toml = file("malformed.toml", "[scenario]\nname = @\n");
    let xml = file("spec.xml", "<Scenario name=\"x\"/>");
    let unknown_policy = file(
        "policy.toml",
        &format!(
            "{region}policy = \"round-robin\"\n\
             [[region.ring]]\nname = \"a\"\ndensity = 100\nnodes = 8\n"
        ),
    );
    let no_rings = file("no-rings.toml", &format!("{region}policy = \"spread\"\n"));
    let misfit = file(
        "misfit.toml",
        "[scenario]\nname = \"misfit\"\nkind = \"fleet\"\nhours = 1\n\
         [schedule]\ndensities = [110]\n\
         [oracle]\nalpha = 0.99\nmin_acceptance = 1.0\n",
    );
    let huge_hours = file(
        "huge-hours.toml",
        "[scenario]\nname = \"huge\"\nkind = \"fleet\"\nhours = 1e18\n\
         [schedule]\ndensities = [100]\n",
    );
    // 4294967310 is 2^32 + 14: a `u32` cast would read 14 and run.
    let wide_nodes = file(
        "wide-nodes.toml",
        "[scenario]\nname = \"wide\"\nkind = \"fleet\"\nhours = 1\n\
         [schedule]\ndensities = [100]\nnode_count = 4294967310\n",
    );
    let wide_members = file(
        "wide-members.toml",
        "[scenario]\nname = \"wide\"\nkind = \"pools\"\nhours = 1\n\
         [pools]\nmembers = 4294967316\n",
    );
    // 2^64: a float read saturates it to `u64::MAX` and runs.
    let wide_seed = file(
        "wide-seed.toml",
        "[scenario]\nname = \"wide\"\nkind = \"fleet\"\nhours = 1\n\
         seed = 18446744073709551616\n[schedule]\ndensities = [100]\n",
    );
    let out = dir.join("out").display().to_string();
    let missing = dir.join("missing.toml").display().to_string();

    let cases: Vec<(&str, Vec<&str>, i32)> = vec![
        ("no command", vec![], 2),
        ("unknown command", vec!["frobnicate"], 2),
        ("unknown flag", vec!["run", "density_sweep", "--bogus"], 2),
        (
            "missing value",
            vec!["run", "density_sweep", "--threads"],
            2,
        ),
        (
            "non-integer",
            vec!["run", "density_sweep", "--threads", "x"],
            2,
        ),
        (
            "zero hours",
            vec!["run", "density_sweep", "--hours", "0"],
            2,
        ),
        ("unknown builtin", vec!["run", "no_such_builtin"], 2),
        ("missing file", vec!["run", &missing], 2),
        ("malformed TOML", vec!["run", &malformed_toml], 2),
        ("an XML file is not a scenario", vec!["run", &xml], 2),
        ("unknown region policy", vec!["run", &unknown_policy], 2),
        ("region without rings", vec!["run", &no_rings], 2),
        ("emit is not a command", vec!["emit", "100"], 2),
        (
            "--hours past the clock",
            vec![
                "run",
                "density_sweep",
                "--hours",
                "18446744073709551615",
                "--out",
                &out,
            ],
            2,
        ),
        (
            "[scenario] hours past the clock",
            vec!["run", &huge_hours, "--out", &out],
            2,
        ),
        (
            "[schedule] node_count past u32",
            vec!["run", &wide_nodes, "--out", &out],
            2,
        ),
        (
            "[pools] members past u32",
            vec!["run", &wide_members, "--out", &out],
            2,
        ),
        (
            "[scenario] seed past u64",
            vec!["run", &wide_seed, "--out", &out],
            2,
        ),
        ("oracle gate fails", vec!["run", &misfit, "--out", &out], 1),
    ];
    for (what, argv, expected) in cases {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let code = catch_unwind(|| toto_scenario::cli::main(&argv))
            .unwrap_or_else(|_| panic!("{what}: toto panicked"));
        assert_eq!(code, expected, "{what}: exit code");
    }
    assert!(
        !dir.join("out").exists(),
        "a rejected or gated run writes nothing"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_seed_past_2_pow_53_runs_as_written() {
    // 2^53 + 1 is the first integer an `f64` cannot hold: read as a
    // float it would run, and record, the seed 2^53.
    let dir = std::env::temp_dir().join(format!("toto-cli-seed-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let scenario = dir.join("seed.toml");
    fs::write(
        &scenario,
        "[scenario]\nname = \"seed\"\nkind = \"fleet\"\nhours = 1\n\
         seed = 9007199254740993\n[schedule]\ndensities = [100]\n",
    )
    .expect("write input");
    let out = dir.join("out");
    let argv: Vec<String> = [
        "run",
        &scenario.display().to_string(),
        "--out",
        &out.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(toto_scenario::cli::main(&argv), 0);
    let manifest = fs::read_to_string(out.join("runs/seed/manifest.json")).expect("manifest");
    assert!(
        manifest.contains("\"root_seed\": 9007199254740993"),
        "{manifest}"
    );
    let _ = fs::remove_dir_all(&dir);
}
