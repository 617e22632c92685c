//! The workloads: their deployments, the inputs generated from the
//! seed, and the checks every output must pass.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Duration;
use theta_codec::{Decode, Encode};
use theta_orchestration::Request;
use theta_schemes::registry::SchemeId;
use theta_schemes::{kg20, sg02};
use theta_service::RpcClient;

/// The open-loop workload's offered rate, about half the saturation
/// throughput of its mix on a 2-core host.
pub const OPEN_RATE_OPS: f64 = 25.0;
/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client, SG02 decrypts on a 7-node in-memory
    /// cluster with the DO-7-L link profile.
    Sg02SeqMem7,
    /// Open loop at [`OPEN_RATE_OPS`], a third each of SG02, CKS05 and
    /// KG20 on a 4-node authenticated TCP loopback mesh.
    MixedTcp4Open,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Sg02SeqMem7, Workload::MixedTcp4Open];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sg02SeqMem7 => "sg02_seq_mem7",
            Workload::MixedTcp4Open => "mixed_tcp4_open",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(t, n)` of the deployment.
    pub fn params(self) -> (u16, u16) {
        match self {
            Workload::Sg02SeqMem7 => (2, 7),
            Workload::MixedTcp4Open => (1, 4),
        }
    }

    /// The schemes of the request mix, taken in turn.
    pub fn schemes(self) -> &'static [SchemeId] {
        match self {
            Workload::Sg02SeqMem7 => &[SchemeId::Sg02],
            Workload::MixedTcp4Open => &[SchemeId::Sg02, SchemeId::Cks05, SchemeId::Kg20],
        }
    }

    /// Set-ups per run; `setup_s` is their median. An in-memory set-up
    /// takes a few ms, so it is repeated more often than the TCP one,
    /// which takes about a second.
    pub fn setups(self) -> u64 {
        match self {
            Workload::Sg02SeqMem7 => 15,
            Workload::MixedTcp4Open => 5,
        }
    }

    /// True for the closed loop (one request at a time), false for the
    /// open loop.
    pub fn is_closed_loop(self) -> bool {
        self == Workload::Sg02SeqMem7
    }
}

/// The public keys a client needs to make inputs and check outputs,
/// fetched over the scheme API.
#[derive(Clone, Default)]
pub struct Keys {
    pub sg02: Option<sg02::PublicKey>,
    pub kg20: Option<kg20::PublicKey>,
}

impl Keys {
    /// Fetches and decodes the keys of `schemes` through `client`.
    pub fn fetch(client: &mut RpcClient, schemes: &[SchemeId]) -> Result<Keys, String> {
        let mut keys = Keys::default();
        for &scheme in schemes {
            let bytes = client
                .public_key(scheme)
                .map_err(|e| format!("public key: {e}"))?;
            let bad = |e: theta_codec::CodecError| format!("{scheme} public key: {e}");
            match scheme {
                SchemeId::Sg02 => keys.sg02 = Some(sg02::PublicKey::decoded(&bytes).map_err(bad)?),
                SchemeId::Kg20 => keys.kg20 = Some(kg20::PublicKey::decoded(&bytes).map_err(bad)?),
                _ => {}
            }
        }
        Ok(keys)
    }
}

/// One generated request and what its output must be.
#[derive(Clone, Debug)]
pub struct Op {
    pub scheme: SchemeId,
    pub request: Request,
    /// The plaintext (SG02), the signed message (KG20) or the
    /// coin name (CKS05).
    pub message: Vec<u8>,
}

/// Label every benchmark ciphertext carries.
pub const LABEL: &[u8] = b"perfbench";

/// Makes input `index` of stream `stream` for `seed`. Each input has its
/// own RNG, so inputs are the same whatever order they are made in, and
/// distinct, so no request hits the program's result cache.
pub fn make_op(workload: Workload, keys: &Keys, seed: u64, stream: u64, index: u64) -> Op {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.rotate_left(32) ^ index,
    );
    let mix = workload.schemes();
    let scheme = mix[(index % mix.len() as u64) as usize];
    let mut message = vec![0u8; 32];
    rng.fill_bytes(&mut message);
    let request = match scheme {
        SchemeId::Sg02 => {
            let pk = keys
                .sg02
                .as_ref()
                .expect("sg02 key fetched for an sg02 workload");
            Request::Sg02Decrypt(sg02::encrypt(pk, LABEL, &message, &mut rng).encoded())
        }
        SchemeId::Kg20 => Request::Kg20Sign(message.clone()),
        SchemeId::Cks05 => Request::Cks05Coin(message.clone()),
        other => unreachable!("no workload uses {other}"),
    };
    Op {
        scheme,
        request,
        message,
    }
}

/// Input streams, so setup probes, warm-up and measured load never
/// repeat a request.
pub mod stream {
    pub const SETUP: u64 = 1;
    pub const WARMUP: u64 = 2;
    pub const LOAD: u64 = 3;
}

/// Arrival offsets of the open loop: a Poisson process of `rate` over
/// `seconds`, conditioned on its expected count, so every seed offers
/// the same number of requests.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11_0ca7);
    let count = (rate * seconds).round() as usize;
    let mut at: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// Verdict on each reply; `true` where the output is right. CKS05 coins
/// are compared with `second`'s answer for the same coin.
pub fn check_outputs(
    keys: &Keys,
    ops: &[&Op],
    outputs: &[&[u8]],
    second: &mut RpcClient,
) -> Vec<bool> {
    ops.iter()
        .zip(outputs)
        .map(|(op, out)| match op.scheme {
            SchemeId::Sg02 => *out == op.message.as_slice(),
            SchemeId::Kg20 => {
                let pk = keys.kg20.as_ref().expect("kg20 key fetched");
                kg20::Signature::decoded(out).is_ok_and(|sig| kg20::verify(pk, &op.message, &sig))
            }
            SchemeId::Cks05 => second
                .run_protocol(op.request.clone())
                .is_ok_and(|(coin, _)| coin == *out),
            _ => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn inputs_depend_only_on_seed_and_index() {
        let keys = Keys::default();
        // Index 1 of the mix is a CKS05 coin, which needs no key.
        let op = |seed, stream| make_op(Workload::MixedTcp4Open, &keys, seed, stream, 1);
        let (a, b) = (op(7, stream::LOAD), op(7, stream::LOAD));
        let (c, d) = (op(8, stream::LOAD), op(7, stream::WARMUP));
        assert_eq!(a.scheme, SchemeId::Cks05);
        assert_eq!(a.request, b.request);
        assert_ne!(a.request, c.request);
        assert_ne!(a.request, d.request);
    }

    #[test]
    fn schedule_has_fixed_count_and_is_sorted() {
        let s = poisson_schedule(3, 25.0, 10.0);
        assert_eq!(s.len(), 250);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() < Duration::from_secs(10));
        assert_ne!(s, poisson_schedule(4, 25.0, 10.0));
    }
}
