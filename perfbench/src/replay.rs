//! Per-layer measurements made after the timed window, by calling each
//! crate's public functions directly: a replay of the requests' crypto
//! (theta-schemes, theta-math), the model's latency (theta-sim) and a
//! hop probe on a separate node pair (theta-network).

use crate::spans::Journal;
use crate::stats::median;
use crate::workload::{Op, Workload, LABEL};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use theta_math::bn254::{pairing, G1, G2};
use theta_network::inmemory::{InMemoryConfig, InMemoryHub};
use theta_network::{LinkProfile, Network};
use theta_schemes::batch::{settle_mixed, PendingCheck};
use theta_schemes::registry::SchemeId;
use theta_schemes::{cks05, kg20, sg02, ThresholdParams};
use theta_sim::{deployment_by_name, run_experiment, CostModel, Deployment, Region, SimConfig};

/// Requests replayed per scheme.
const REPLAYS: usize = 16;
/// Share checks in the replayed cross-instance batch: the orchestration
/// layer's default `batch_flush_size`.
const BATCH_CHECKS: usize = 16;

/// Median crypto cost of one request, averaged over the workload's mix.
#[derive(Clone, Copy, Debug, Default)]
pub struct CryptoCost {
    /// One node's share.
    pub create_ms: f64,
    /// One received share, checked alone.
    pub verify_ms: f64,
    /// A cross-instance batch of [`BATCH_CHECKS`] share checks.
    pub verify_batch_ms: f64,
    /// Combining a quorum of (already checked) shares.
    pub combine_ms: f64,
    /// create + t·verify + combine: the crypto on a request's critical path.
    pub critical_path_ms: f64,
}

/// Times `f`, records it as a span, and returns its result and length.
fn timed<T>(
    journal: &mut Journal,
    name: &'static str,
    parent: usize,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let end = Instant::now();
    journal.record(name, start, end, Some(parent), request);
    (out, (end - start).as_secs_f64() * 1e3)
}

/// Per-request samples of one scheme.
#[derive(Default)]
struct Samples {
    create: Vec<f64>,
    verify: Vec<f64>,
    combine: Vec<f64>,
    critical: Vec<f64>,
}

/// Replays one request: party 1's share is timed, the other `quorum - 1`
/// shares are made untimed and checked one by one, and the quorum is
/// combined. `own_setup_ms` is share work party 1 did beforehand (KG20's
/// round-one nonce). Returns the shares.
#[allow(clippy::too_many_arguments)]
fn replay_request<S>(
    journal: &mut Journal,
    req: u64,
    quorum: usize,
    own_setup_ms: f64,
    mut create: impl FnMut(usize) -> S,
    verify: impl Fn(&S) -> bool,
    combine: impl FnOnce(&[S]) -> bool,
    samples: &mut Samples,
) -> Vec<S> {
    let root = journal.record("schemes.replay", Instant::now(), Instant::now(), None, req);
    let start = Instant::now();
    let (own, create_ms) = timed(journal, "schemes.create_share", root, req, || create(0));
    let mut shares = vec![own];
    let mut verify_ms = 0.0;
    for party in 1..quorum {
        let share = create(party);
        let (ok, ms) = timed(journal, "schemes.verify_share", root, req, || {
            verify(&share)
        });
        assert!(ok, "a replayed share failed its check");
        verify_ms += ms;
        samples.verify.push(ms);
        shares.push(share);
    }
    let (ok, combine_ms) = timed(journal, "schemes.combine", root, req, || combine(&shares));
    assert!(ok, "a replayed combine failed");
    journal.stretch(root, start, Instant::now());
    let create_ms = create_ms + own_setup_ms;
    samples.create.push(create_ms);
    samples.combine.push(combine_ms);
    samples.critical.push(create_ms + verify_ms + combine_ms);
    shares
}

/// Replays the crypto of up to [`REPLAYS`] of `ops` per scheme with keys
/// of the workload's `(t, n)`: party 1 creates its share, checks the
/// other `t` shares of a quorum one by one, and combines the way the node
/// does after its batcher has checked the shares. The checks the batcher
/// takes are then settled as one batch of [`BATCH_CHECKS`].
pub fn replay_crypto(
    workload: Workload,
    seed: u64,
    ops: &[&Op],
    journal: &mut Journal,
) -> CryptoCost {
    let (t, n) = workload.params();
    let params = ThresholdParams::new(t, n).expect("workload parameters are valid");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007e_91a4);
    let quorum = t as usize + 1;
    let mut checks: Vec<PendingCheck> = Vec::new();
    let mut per_scheme = Vec::new();
    for &scheme in workload.schemes() {
        let mut s = Samples::default();
        let picked = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.scheme == scheme)
            .take(REPLAYS);
        match scheme {
            SchemeId::Sg02 => {
                let (pk, keys) = sg02::keygen(params, &mut rng);
                for (req, op) in picked {
                    let ct = sg02::encrypt(&pk, LABEL, &op.message, &mut rng);
                    let shares = replay_request(
                        journal,
                        req as u64,
                        quorum,
                        0.0,
                        |i| {
                            sg02::create_decryption_share(&keys[i], &ct, &mut rng)
                                .expect("valid ciphertext")
                        },
                        |share| sg02::verify_decryption_share(&pk, &ct, share),
                        |shares| {
                            sg02::combine_preverified(&pk, &ct, shares)
                                .is_ok_and(|m| m == op.message)
                        },
                        &mut s,
                    );
                    checks.extend(
                        shares[1..]
                            .iter()
                            .map(|sh| sg02::pending_check(&pk, &ct, sh)),
                    );
                }
            }
            SchemeId::Cks05 => {
                let (pk, keys) = cks05::keygen(params, &mut rng);
                for (req, op) in picked {
                    let name = &op.message;
                    let shares = replay_request(
                        journal,
                        req as u64,
                        quorum,
                        0.0,
                        |i| cks05::create_coin_share(&keys[i], name, &mut rng),
                        |share| cks05::verify_coin_share(&pk, name, share),
                        |shares| cks05::combine_preverified(&pk, name, shares).is_ok(),
                        &mut s,
                    );
                    checks.extend(
                        shares[1..]
                            .iter()
                            .map(|sh| cks05::pending_check(&pk, name, sh)),
                    );
                }
            }
            SchemeId::Kg20 => {
                let (pk, keys) = kg20::keygen(params, &mut rng);
                for (req, op) in picked {
                    let msg = &op.message;
                    // Round one: every signer commits to a nonce; party
                    // 1's counts towards its share work.
                    let start = Instant::now();
                    let own = kg20::generate_nonce(&keys[0], &mut rng);
                    let end = Instant::now();
                    journal.record("schemes.create_share", start, end, None, req as u64);
                    let mut nonces: Vec<Option<kg20::SigningNonce>> = vec![Some(own)];
                    nonces.extend(
                        keys[1..quorum]
                            .iter()
                            .map(|k| Some(kg20::generate_nonce(k, &mut rng))),
                    );
                    let commitments: Vec<_> = nonces
                        .iter()
                        .flatten()
                        .map(|nonce| nonce.commitment().clone())
                        .collect();
                    // Round two. KG20 shares are not batchable, and
                    // `combine` checks every share itself.
                    replay_request(
                        journal,
                        req as u64,
                        quorum,
                        (end - start).as_secs_f64() * 1e3,
                        |i| {
                            let nonce = nonces[i].take().expect("one share per signer");
                            kg20::sign_share(&keys[i], nonce, msg, &commitments)
                                .expect("signer set")
                        },
                        |share| kg20::verify_share(&pk, msg, &commitments, share),
                        |shares| kg20::combine(&pk, msg, &commitments, shares).is_ok(),
                        &mut s,
                    );
                }
            }
            other => unreachable!("no workload uses {other}"),
        }
        per_scheme.push(s);
    }

    let batch: Vec<&PendingCheck> = checks.iter().take(BATCH_CHECKS).collect();
    let mut batch_ms = Vec::new();
    for round in 0..3 {
        let root = journal.record(
            "schemes.replay",
            Instant::now(),
            Instant::now(),
            None,
            round,
        );
        let start = Instant::now();
        let (verdicts, ms) = timed(journal, "schemes.verify_batch", root, round, || {
            settle_mixed(&batch)
        });
        assert!(verdicts.iter().all(|ok| *ok), "a replayed batch failed");
        journal.stretch(root, start, Instant::now());
        batch_ms.push(ms);
    }

    let mean = |f: &dyn Fn(&Samples) -> &Vec<f64>| {
        per_scheme
            .iter()
            .map(|s| median(f(s)).unwrap_or(0.0))
            .sum::<f64>()
            / per_scheme.len() as f64
    };
    CryptoCost {
        create_ms: mean(&|s| &s.create),
        verify_ms: mean(&|s| &s.verify),
        verify_batch_ms: median(&batch_ms).unwrap_or(0.0),
        combine_ms: mean(&|s| &s.combine),
        critical_path_ms: mean(&|s| &s.critical),
    }
}

/// Median time of one BN254 pairing.
pub fn pairing_ms(journal: &mut Journal) -> f64 {
    let (p, q) = (G1::generator(), G2::generator());
    let mut samples = Vec::new();
    for round in 0..8 {
        let root = journal.record("math.replay", Instant::now(), Instant::now(), None, round);
        let start = Instant::now();
        let (_, ms) = timed(journal, "math.bn254_pairing", root, round, || {
            pairing(&p, &q)
        });
        journal.stretch(root, start, Instant::now());
        samples.push(ms);
    }
    median(&samples).unwrap_or(0.0)
}

/// The simulator's median latency for the workload's deployment and mix
/// at a light open-loop load, with the deterministic reference costs.
pub fn sim_l50_ms(workload: Workload, seed: u64) -> f64 {
    let deployment = match workload {
        Workload::Sg02SeqMem7 => deployment_by_name("DO-7-L").expect("DO-7-L is in Table 2"),
        Workload::MixedTcp4Open => Deployment {
            name: "local-4",
            n: 4,
            t: 1,
            regions: &[Region::Fra1],
            max_rate: 1024,
        },
    };
    let cost = CostModel::reference();
    let schemes = workload.schemes();
    let total: f64 = schemes
        .iter()
        .map(|&scheme| {
            let cfg = SimConfig {
                deployment: deployment.clone(),
                scheme,
                rate: 4.0,
                duration: Duration::from_secs(3),
                payload_bytes: 32,
                drain: Duration::from_secs(30),
                seed,
                kg20_precomputed: false,
                worker_lanes: 1,
            };
            run_experiment(&cfg, &cost).map_or(0.0, |out| out.latency.l50 * 1e3)
        })
        .sum();
    total / schemes.len() as f64
}

/// Share-sized probe payload.
const PROBE_BYTES: usize = 128;
/// Hops timed per direction.
const PROBE_HOPS: u64 = 40;

/// One-way hop latencies and the TCP handshake, measured on a separate
/// node pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetProbe {
    pub inmemory_hop_us: f64,
    pub tcp_to_acceptor_us: f64,
    pub tcp_to_dialer_us: f64,
    pub tcp_handshake_ms: f64,
}

/// Ping-pong between `a` and `b`, `PROBE_HOPS` rounds: `a` sends through
/// [`Network::send_to`], `b` answers as soon as the event arrives on its
/// [`Network::events`]. Traffic flows both ways, as in a protocol run, so
/// the kernel's delayed acknowledgements apply as they do under load.
/// Returns the median one-way times `a → b` and `b → a` in µs.
fn ping_pong(
    journal: &mut Journal,
    names: [&'static str; 2],
    a: &dyn Network,
    b: &dyn Network,
) -> Result<(f64, f64), String> {
    let mut there = Vec::new();
    let mut back = Vec::new();
    let hop = |from: &dyn Network, to: &dyn Network, round: u64| {
        let start = Instant::now();
        from.send_to(to.node_id(), vec![round as u8; PROBE_BYTES]);
        to.events()
            .recv_timeout(Duration::from_secs(5))
            .map(|_| (start, Instant::now()))
            .map_err(|_| format!("no delivery {} -> {}", from.node_id(), to.node_id()))
    };
    for round in 0..PROBE_HOPS {
        let (start, end) = hop(a, b, round)?;
        journal.record(names[0], start, end, None, round);
        there.push((end - start).as_secs_f64() * 1e6);
        let (start, end) = hop(b, a, round)?;
        journal.record(names[1], start, end, None, round);
        back.push((end - start).as_secs_f64() * 1e6);
    }
    Ok((median(&there).unwrap_or(0.0), median(&back).unwrap_or(0.0)))
}

/// Probes the transport a workload runs on: an in-memory pair (zero
/// link latency), or an authenticated TCP loopback pair, where node 1
/// dials node 2, so `1 → 2` travels on the dialer's socket and `2 → 1`
/// on the acceptor's. The other transport's fields stay 0.
pub fn network_probe(tcp: bool, seed: u64, journal: &mut Journal) -> Result<NetProbe, String> {
    let mut probe = NetProbe::default();
    if tcp {
        let start = Instant::now();
        let pair = crate::cluster::connect_mesh(2, seed)?;
        let end = Instant::now();
        journal.record("network.tcp.handshake", start, end, None, 0);
        probe.tcp_handshake_ms = (end - start).as_secs_f64() * 1e3;
        let names = ["network.tcp.hop.to_acceptor", "network.tcp.hop.to_dialer"];
        (probe.tcp_to_acceptor_us, probe.tcp_to_dialer_us) =
            ping_pong(journal, names, &pair[0], &pair[1])?;
    } else {
        let config = InMemoryConfig {
            default_link: LinkProfile::fixed(Duration::ZERO),
            drop_probability: 0.0,
            seed,
        };
        let (_hub, nodes) = InMemoryHub::build(2, config);
        let names = ["network.inmemory.hop", "network.inmemory.hop"];
        (probe.inmemory_hop_us, _) = ping_pong(journal, names, &nodes[0], &nodes[1])?;
    }
    Ok(probe)
}
