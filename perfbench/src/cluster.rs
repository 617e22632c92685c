//! Standing a workload's cluster up through the crates' public set-up
//! functions, timed until it serves RPC (`setup_s`), and then until its
//! first verified reply.

use crate::workload::{check_outputs, make_op, stream, Keys, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use theta_core::{ThetaNetwork, ThetaNetworkBuilder};
use theta_network::handshake::MeshAuth;
use theta_network::tcp::TcpMesh;
use theta_network::LinkProfile;
use theta_orchestration::{spawn_node, KeyChest, NodeConfig, NodeHandle};
use theta_schemes::{cks05, kg20, sg02, ThresholdParams};
use theta_service::{PublicKeyChest, RpcClient, ServiceHandle, ServiceOptions};

/// How long an RPC connection waits for one reply.
pub const RPC_TIMEOUT: Duration = Duration::from_secs(60);

/// Counters the nodes expose through public getters, summed over nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Messages sent to peers (`theta_net_messages_sent_total`).
    pub msgs: u64,
    /// Bytes sent to peers (`theta_net_bytes_sent_total`).
    pub bytes: u64,
    /// Cross-instance batch flushes, every reason
    /// (`theta_batch_flushes_total`).
    pub flushes: u64,
    /// Share checks handed to the batcher
    /// (`theta_shares_cross_batched_total`).
    pub checks: u64,
    /// P2P re-broadcasts (`EventLoopSnapshot::retries_sent`).
    pub retries: u64,
    /// Events dropped at a full mailbox (`theta_mailbox_dropped_total`).
    pub mailbox_dropped: u64,
}

impl Counters {
    fn read(nodes: &[Arc<NodeHandle>]) -> Counters {
        let mut c = Counters::default();
        for node in nodes {
            let obs = node.observability();
            let get = |name: &str, labels: &[(&str, &str)]| {
                obs.registry.counter_value(name, labels).unwrap_or(0)
            };
            for peer in 1..=nodes.len() {
                let peer = peer.to_string();
                c.msgs += get("theta_net_messages_sent_total", &[("peer", &peer)]);
                c.bytes += get("theta_net_bytes_sent_total", &[("peer", &peer)]);
            }
            for reason in ["size", "age", "shutdown"] {
                c.flushes += get("theta_batch_flushes_total", &[("reason", reason)]);
            }
            c.checks += get("theta_shares_cross_batched_total", &[]);
            c.mailbox_dropped += get("theta_mailbox_dropped_total", &[]);
            c.retries += node.counters().retries_sent;
        }
        c
    }

    /// The increase since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            msgs: self.msgs - before.msgs,
            bytes: self.bytes - before.bytes,
            flushes: self.flushes - before.flushes,
            checks: self.checks - before.checks,
            retries: self.retries - before.retries,
            mailbox_dropped: self.mailbox_dropped - before.mailbox_dropped,
        }
    }
}

/// A running cluster with RPC served at nodes 1 and 2.
pub struct Cluster {
    /// The RPC address of node 1 (the load's target).
    pub rpc: SocketAddr,
    /// The RPC address of node 2 (answers for output checks).
    pub rpc_second: SocketAddr,
    /// Every node, for the counters they expose.
    pub nodes: Vec<Arc<NodeHandle>>,
    /// The public keys, as served by the scheme API.
    pub keys: Keys,
    // Held so the cluster lives as long as this value; dropping them
    // stops every thread.
    _net: Option<ThetaNetwork>,
    _services: Vec<ServiceHandle>,
}

impl Cluster {
    /// Sums the counters every node exposes.
    pub fn counters(&self) -> Counters {
        Counters::read(&self.nodes)
    }
}

fn loopback() -> SocketAddr {
    SocketAddr::from((Ipv4Addr::LOCALHOST, 0))
}

/// How long one set-up took.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    /// Keygen, mesh up, nodes spawned, RPC bound and the public keys
    /// served, in seconds.
    pub ready_s: f64,
    /// From then until the first request's reply has been verified, in ms.
    pub first_reply_ms: f64,
}

/// Builds the cluster for `workload` and waits for one verified reply.
/// Returns it with its set-up times.
pub fn set_up(workload: Workload, seed: u64, attempt: u64) -> Result<(Cluster, SetupTime), String> {
    let start = Instant::now();
    let (t, n) = workload.params();
    let (net, services, nodes, rpc, rpc_second) = match workload {
        Workload::Sg02SeqMem7 => {
            let mut net = ThetaNetworkBuilder::new(t, n)
                .seed(seed)
                .with_sg02()
                .link_profile(LinkProfile::local())
                .build()
                .map_err(|e| format!("build: {e}"))?;
            let rpc = net
                .serve_rpc(1, loopback())
                .map_err(|e| format!("serve: {e}"))?;
            let second = net
                .serve_rpc(2, loopback())
                .map_err(|e| format!("serve: {e}"))?;
            let nodes = (1..=n).map(|id| net.node(id).clone()).collect();
            (Some(net), Vec::new(), nodes, rpc, second)
        }
        Workload::MixedTcp4Open => {
            let (nodes, services) = tcp_cluster(t, n, seed)?;
            let (rpc, second) = (services[0].addr(), services[1].addr());
            (None, services, nodes, rpc, second)
        }
    };
    let mut client = RpcClient::connect(rpc, RPC_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let keys = Keys::fetch(&mut client, workload.schemes())?;
    let ready = Instant::now();
    let probe = make_op(workload, &keys, seed, stream::SETUP, attempt);
    let (out, _) = client
        .run_protocol(probe.request.clone())
        .map_err(|e| format!("first request: {e}"))?;
    let mut second =
        RpcClient::connect(rpc_second, RPC_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    if check_outputs(&keys, &[&probe], &[&out], &mut second) != [true] {
        return Err("first reply failed its check".into());
    }
    let time = SetupTime {
        ready_s: (ready - start).as_secs_f64(),
        first_reply_ms: ready.elapsed().as_secs_f64() * 1e3,
    };
    Ok((
        Cluster {
            rpc,
            rpc_second,
            nodes,
            keys,
            _net: net,
            _services: services,
        },
        time,
    ))
}

/// A trusted-dealer TCP cluster: keygen, an authenticated loopback mesh
/// (every link handshaken and AEAD-sealed), a router per node and RPC at
/// nodes 1 and 2.
fn tcp_cluster(
    t: u16,
    n: u16,
    seed: u64,
) -> Result<(Vec<Arc<NodeHandle>>, Vec<ServiceHandle>), String> {
    let params = ThresholdParams::new(t, n).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chests: Vec<KeyChest> = (0..n).map(|_| KeyChest::new()).collect();
    let mut public = PublicKeyChest::default();
    let (pk, shares) = sg02::keygen(params, &mut rng);
    public.sg02 = Some(pk);
    chests
        .iter_mut()
        .zip(shares)
        .for_each(|(c, s)| c.sg02 = Some(s));
    let (pk, shares) = cks05::keygen(params, &mut rng);
    public.cks05 = Some(pk);
    chests
        .iter_mut()
        .zip(shares)
        .for_each(|(c, s)| c.cks05 = Some(s));
    let (pk, shares) = kg20::keygen(params, &mut rng);
    public.kg20 = Some(pk);
    chests
        .iter_mut()
        .zip(shares)
        .for_each(|(c, s)| c.kg20 = Some(s));

    let meshes = connect_mesh(n, seed)?;
    // No precomputed nonces: KG20 runs both rounds, the way
    // `ThetaNetworkBuilder::with_kg20(0)` provisions it.
    let config = NodeConfig {
        use_precomputed_nonces: false,
        ..NodeConfig::default()
    };
    let nodes: Vec<Arc<NodeHandle>> = chests
        .into_iter()
        .zip(meshes)
        .map(|(chest, mesh)| Arc::new(spawn_node(chest, Box::new(mesh), config.clone())))
        .collect();
    let mut services = Vec::new();
    for node in &nodes[..2] {
        let listener = TcpListener::bind(loopback()).map_err(|e| format!("bind: {e}"))?;
        services.push(
            theta_service::serve_on_with_options(
                listener,
                node.clone(),
                public.clone(),
                RPC_TIMEOUT,
                ServiceOptions::default(),
            )
            .map_err(|e| format!("serve: {e}"))?,
        );
    }
    Ok((nodes, services))
}

/// Connects an `n`-node authenticated TCP mesh on loopback, one set-up
/// thread per node (each accepts from lower ids while dialing higher
/// ones).
pub fn connect_mesh(n: u16, seed: u64) -> Result<Vec<theta_network::tcp::TcpMeshNode>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind(loopback()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("addr: {e}"))?;
    std::thread::scope(|scope| {
        let joins = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let id = i as u16 + 1;
                let addrs = &addrs;
                std::thread::Builder::new()
                    .name(format!("bench-mesh-{id}"))
                    .spawn_scoped(scope, move || {
                        TcpMesh::connect_listener(
                            id,
                            listener,
                            addrs,
                            MeshAuth::insecure_dev(id, n, seed),
                        )
                    })
                    .map_err(|e| format!("spawn: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .map_err(|_| "mesh set-up thread panicked".to_string())?
                    .map_err(|e| format!("mesh: {e}"))
            })
            .collect()
    })
}
