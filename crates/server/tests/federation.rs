//! Federated sweep execution: a frontier `contopt-server` placing cells
//! across real downstream servers over the v1 protocol.
//!
//! These pin the federation guarantees:
//! * a two-tier sweep is byte-identical to a standalone one (the golden
//!   harness applies unchanged through a frontier),
//! * no cell simulates twice anywhere in the topology, and the
//!   accounting invariant holds at every tier,
//! * a frontier cache hit never forwards; a downstream cache hit counts
//!   as a frontier `cache_hits`; a request mixing cached and new cells
//!   forwards and simulates only the new ones,
//! * `ping` through the frontier reports the downstream topology.
//!
//! Link-failure behaviour (blackholed downstreams, mid-stream kills)
//! lives in `tests/faults.rs` behind `--features fault-injection`.

// Test scaffolding may panic freely; the crate-level deny on
// unwrap/expect protects the service itself, not its test harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_client::protocol::{CellReply, CellResult, PlanCell, SweepStatus};
use contopt_client::Client;
use contopt_experiments::{check_cell, TolerancePolicy};
use contopt_server::federation::FederationConfig;
use contopt_server::{Server, ServerConfig, ServerHandle};
use contopt_sim::{MachineConfig, Scenario};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn smoke() -> Scenario {
    Scenario::load(repo_root().join("scenarios/smoke.json")).expect("checked-in smoke scenario")
}

fn spawn_standalone(jobs: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs,
            cache_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind downstream")
    .spawn()
    .expect("spawn downstream")
}

fn spawn_frontier(jobs: usize, downstreams: Vec<String>) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs,
            cache_capacity: 1024,
            federation: FederationConfig {
                downstreams,
                ..FederationConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind frontier")
    .spawn()
    .expect("spawn frontier")
}

fn reports(cells: Vec<CellReply>) -> Vec<CellResult> {
    cells
        .into_iter()
        .map(|c| match c {
            CellReply::Report(r) => r,
            CellReply::Failed(e) => panic!("unexpected cell error: {e}"),
        })
        .collect()
}

fn assert_accounted(status: &SweepStatus) {
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "tier-wide accounting must be exhaustive: {status:?}"
    );
}

#[test]
fn two_tier_sweeps_are_byte_identical_to_standalone() {
    let ds1 = spawn_standalone(2);
    let ds2 = spawn_standalone(2);
    let frontier = spawn_frontier(2, vec![ds1.addr().to_string(), ds2.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let sc = smoke();

    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let status = sweep.status();
    assert_eq!(status.results, 4);
    assert_eq!(status.unique, 4);
    assert_eq!(status.errors, 0);
    assert_accounted(&status);
    assert!(
        status.forwarded > 0,
        "an idle two-downstream frontier must place cells remotely: {status:?}"
    );
    let cells = reports(sweep.fetch_reports().expect("fetch"));
    assert_eq!(cells.len(), 4);

    // The dedup guarantee holds topology-wide: 4 unique cells, exactly
    // 4 simulations across all three engines.
    let sims = frontier.engine().total_simulations()
        + ds1.engine().total_simulations()
        + ds2.engine().total_simulations();
    assert_eq!(sims, 4, "no cell simulates twice anywhere: {status:?}");

    // The exact harness a local `--check` runs: any byte of difference
    // between a federated report and the checked-in golden is a drift.
    let goldens = repo_root().join("goldens");
    let policy = TolerancePolicy::exact();
    for cell in &cells {
        let drift = check_cell(
            &goldens,
            &sc.name,
            &cell.label,
            &cell.workload,
            &cell.report,
            &policy,
        )
        .expect("golden readable");
        assert!(
            drift.is_none(),
            "federated report for {}/{} drifted from the checked-in golden: {:?}",
            cell.label,
            cell.workload,
            drift
        );
    }

    // The frontier's `ping` reports the downstream topology, and the
    // lifetime forwarded gauges account for every forwarded cell.
    let ping = client.ping().expect("ping frontier");
    assert_eq!(ping.downstreams.len(), 2);
    for ds in &ping.downstreams {
        assert!(ds.healthy, "healthy downstream reported unhealthy: {ds:?}");
        assert_eq!(ds.outstanding, 0, "nothing in flight after the sweep");
    }
    let forwarded: u64 = ping.downstreams.iter().map(|ds| ds.forwarded).sum();
    assert_eq!(forwarded, status.forwarded);
}

#[test]
fn resubmission_through_a_frontier_never_forwards() {
    let ds = spawn_standalone(2);
    let frontier = spawn_frontier(2, vec![ds.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let sc = smoke();

    let mut first = client.submit_scenario(&sc, None).expect("first submit");
    let s1 = first.status();
    assert_accounted(&s1);
    assert_eq!(s1.errors, 0);
    let first_reports = reports(first.fetch_reports().expect("fetch"));
    let frontier_sims = frontier.engine().total_simulations();
    let ds_sims = ds.engine().total_simulations();
    assert_eq!(frontier_sims + ds_sims, s1.unique, "cold two-tier sweep");

    // Forwarded results were published into the frontier's own cache
    // (cache coherence across tiers), so the resubmission is answered
    // entirely at the frontier: nothing forwards, nothing simulates.
    let mut second = client.submit_scenario(&sc, None).expect("second submit");
    let s2 = second.status();
    assert_eq!(s2.cache_hits, s2.unique, "warm frontier answers alone");
    assert_eq!(s2.simulated, 0);
    assert_eq!(s2.forwarded, 0, "a frontier cache hit never forwards");
    assert_accounted(&s2);
    assert_eq!(frontier.engine().total_simulations(), frontier_sims);
    assert_eq!(ds.engine().total_simulations(), ds_sims);

    let second_reports = reports(second.fetch_reports().expect("fetch"));
    for (a, b) in first_reports.iter().zip(&second_reports) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn downstream_cache_hits_count_as_frontier_cache_hits() {
    let ds1 = spawn_standalone(2);
    let ds2 = spawn_standalone(2);
    let sc = smoke();

    // Warm *both* downstreams directly with the full sweep, so whatever
    // placement the frontier picks, every forwarded cell is a
    // downstream cache hit.
    for ds in [&ds1, &ds2] {
        let mut sweep = Client::new(ds.addr().to_string())
            .submit_scenario(&sc, None)
            .expect("warm downstream");
        let _ = reports(sweep.fetch_reports().expect("fetch warmup"));
    }
    let ds1_sims = ds1.engine().total_simulations();
    let ds2_sims = ds2.engine().total_simulations();

    let frontier = spawn_frontier(2, vec![ds1.addr().to_string(), ds2.addr().to_string()]);
    let mut sweep = Client::new(frontier.addr().to_string())
        .submit_scenario(&sc, None)
        .expect("submit via cold frontier");
    let status = sweep.status();
    let _ = reports(sweep.fetch_reports().expect("fetch"));

    assert_accounted(&status);
    assert_eq!(status.errors, 0);
    // Every forwarded cell hit a downstream cache — the downstream's
    // work folds into the frontier's `cache_hits`, so the invariant
    // composes across tiers; only locally placed cells simulated.
    assert_eq!(status.cache_hits, status.forwarded, "{status:?}");
    assert_eq!(
        status.simulated,
        status.unique - status.forwarded,
        "{status:?}"
    );
    assert_eq!(ds1.engine().total_simulations(), ds1_sims);
    assert_eq!(ds2.engine().total_simulations(), ds2_sims);
}

#[test]
fn programs_forward_with_their_cells() {
    // A text-authored kernel submitted through a frontier ships its
    // assembled program inline to the downstream tier; with local
    // workers starved of cells (jobs=1, single cell placed by load),
    // the report still byte-matches the checked-in golden.
    let ds = spawn_standalone(2);
    let frontier = spawn_frontier(1, vec![ds.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let sc = Scenario::load(repo_root().join("scenarios/asm_smoke.json"))
        .expect("checked-in asm_smoke scenario");
    assert!(!sc.programs.is_empty());

    let mut sweep = client.submit_scenario(&sc, None).expect("submit");
    let status = sweep.status();
    assert_eq!(status.errors, 0);
    assert_accounted(&status);
    let cells = reports(sweep.fetch_reports().expect("fetch"));

    let goldens = repo_root().join("goldens");
    let policy = TolerancePolicy::exact();
    for cell in &cells {
        let drift = check_cell(
            &goldens,
            &sc.name,
            &cell.label,
            &cell.workload,
            &cell.report,
            &policy,
        )
        .expect("golden readable");
        assert!(
            drift.is_none(),
            "federated program report for {}/{} drifted: {:?}",
            cell.label,
            cell.workload,
            drift
        );
    }

    // Resubmission: the program-keyed fingerprint re-hits the frontier
    // cache whether the cell ran locally or downstream.
    let mut again = client.submit_scenario(&sc, None).expect("resubmit");
    let s2 = again.status();
    assert_eq!(s2.cache_hits, s2.unique);
    assert_eq!(s2.forwarded, 0);
    assert_accounted(&s2);
    let _ = reports(again.fetch_reports().expect("fetch again"));
}

#[test]
fn a_mixed_request_forwards_and_simulates_only_its_new_cells() {
    let ds = spawn_standalone(1);
    let frontier = spawn_frontier(1, vec![ds.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let cell = |label: &str, machine: MachineConfig, workload: &str| PlanCell {
        label: label.to_string(),
        machine,
        workload: workload.to_string(),
    };
    let (paper, full) = (
        MachineConfig::default_paper(),
        MachineConfig::default_with_optimizer(),
    );
    let insts = 20_000;
    let warm = vec![cell("a", paper, "twf"), cell("b", full, "untst")];
    let cold = [cell("c", paper, "mcf"), cell("d", full, "gcc")];

    let mut first = client
        .submit_plan(insts, warm.clone(), None)
        .expect("warm-up");
    let s1 = first.status();
    assert_accounted(&s1);
    assert_eq!(s1.errors, 0);
    let first_reports = reports(first.fetch_reports().expect("fetch warm-up"));

    let link_forwarded = |c: &Client| -> u64 {
        c.ping()
            .expect("ping frontier")
            .downstreams
            .iter()
            .map(|d| d.forwarded)
            .sum()
    };
    let sims_before = frontier.engine().total_simulations() + ds.engine().total_simulations();
    let ds_before = ds.engine().total_simulations();
    let forwarded_before = link_forwarded(&client);

    // Cached and new cells interleaved: on an idle frontier placement
    // alternates local, link, local, link, so both new cells land on the
    // link while both cached cells are placed locally.
    let mixed = vec![
        warm[0].clone(),
        cold[0].clone(),
        warm[1].clone(),
        cold[1].clone(),
    ];
    let mut second = client
        .submit_plan(insts, mixed.clone(), None)
        .expect("mixed");
    let s2 = second.status();
    assert_accounted(&s2);
    assert_eq!(s2.unique, 4);
    assert_eq!(s2.errors, 0);
    assert_eq!(s2.cache_hits, 2, "the cached cells are cache hits: {s2:?}");
    assert_eq!(s2.simulated, 2, "only the new cells simulate: {s2:?}");
    assert_eq!(s2.joined, 0);
    assert_eq!(
        s2.forwarded, 2,
        "both new cells were placed on the link: {s2:?}"
    );
    let sims_after = frontier.engine().total_simulations() + ds.engine().total_simulations();
    assert_eq!(sims_after - sims_before, 2, "one simulation per new cell");
    assert_eq!(ds.engine().total_simulations() - ds_before, s2.forwarded);
    assert_eq!(link_forwarded(&client) - forwarded_before, s2.forwarded);
    let second_reports = reports(second.fetch_reports().expect("fetch mixed"));
    for (old, new) in first_reports
        .iter()
        .zip([&second_reports[0], &second_reports[2]])
    {
        assert_eq!(old.fingerprint, new.fingerprint);
        assert_eq!(old.report, new.report, "a cached reply is the first reply");
    }

    // The whole plan again: every cell is now a frontier cache hit.
    let mut third = client.submit_plan(insts, mixed, None).expect("resubmit");
    let s3 = third.status();
    assert_accounted(&s3);
    assert_eq!(
        (s3.simulated, s3.forwarded, s3.joined, s3.cache_hits),
        (0, 0, 0, 4),
        "{s3:?}"
    );
    let third_reports = reports(third.fetch_reports().expect("fetch resubmit"));
    for (a, b) in second_reports.iter().zip(&third_reports) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.report, b.report);
    }
    assert_eq!(link_forwarded(&client) - forwarded_before, s2.forwarded);
}
