//! Broadcast-heavy stress differentials for the zero-clone message plane.
//!
//! The golden table below was captured from the pre-refactor engine (the
//! per-edge-clone, sort-every-round implementation). The refactored
//! plane must reproduce every fingerprint bit-for-bit — transcript digest,
//! metrics, and final node states. The BoundedArb row came later, from
//! the protocol as it was before the flat engine and the protocols
//! shared one round decoder: it pins the scale-end rounds, whose order
//! the flat engine's outcome (and so every driver golden) cannot see. On a mismatch a check prints the full
//! table it computed in the `GOLDEN` literal's format; to recapture, run
//! the tests on a known-good commit and paste the table they print.
//!
//! A separate regression test ([`inbox_delivery_is_sorted_by_sender`])
//! checks the invariant that replaced the deleted per-round sorts: inboxes
//! arrive ascending by sender id, with exactly one entry per sending
//! neighbor, for both broadcast and unicast traffic.

use arbmis::congest::{Inbox, NodeInfo, Outgoing, Protocol, Simulator};
use arbmis::core::protocols::{MisNodeState, MisProtocol};
use arbmis::core::{ArbParams, FlatAlgo, ParamMode};
use arbmis::graph::{gen, Graph, NodeId};
use rand::SeedableRng;

fn fnv(mut h: u64, x: u64) -> u64 {
    h ^= x;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

fn state_fingerprint(states: &[MisNodeState]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in states {
        h = fnv(
            h,
            u64::from(s.in_mis) | u64::from(s.active) << 1 | u64::from(s.bad) << 2,
        );
    }
    h
}

/// One workload's fingerprint: `(name, transcript_digest, rounds,
/// messages, bits, max_message_bits, state_fingerprint)`.
type Row = (&'static str, u64, u64, u64, u64, u64, u64);

/// Golden fingerprints captured from the pre-refactor engine:
/// `(name, transcript_digest, rounds, messages, bits, max_message_bits,
/// state_fingerprint)`.
const GOLDEN: [Row; 5] = [
    (
        "gnp300_dense_metivier",
        0xeeedd2d6ea974fc4,
        13,
        65367,
        1824096,
        56,
        0xa05b94367449947f,
    ),
    (
        "gnp150_half_luby",
        0xed6c45a4d8d89392,
        25,
        65817,
        1228584,
        24,
        0x5a09b26c6aa2f4b6,
    ),
    (
        "star400_metivier",
        0xe7707f14baedc663,
        7,
        3579,
        101784,
        56,
        0x25727df6f0d1b694,
    ),
    (
        "star257_ghaffari",
        0x0579cdc10a85450a,
        28,
        2361,
        44072,
        24,
        0xa37543e6e117d4df,
    ),
    (
        "geo1500_bounded_arb",
        0x2820abf7f6871788,
        11,
        90980,
        2716928,
        64,
        0x8f6b61a1dfd16580,
    ),
];

fn workload(name: &str) -> (Graph, u64, FlatAlgo) {
    match name {
        "gnp300_dense_metivier" => {
            let mut r = rand::rngs::StdRng::seed_from_u64(11);
            (gen::gnp(300, 0.2, &mut r), 7, FlatAlgo::Metivier)
        }
        "gnp150_half_luby" => {
            let mut r = rand::rngs::StdRng::seed_from_u64(12);
            (gen::gnp(150, 0.5, &mut r), 8, FlatAlgo::Luby)
        }
        "star400_metivier" => (gen::star(400), 9, FlatAlgo::Metivier),
        "star257_ghaffari" => (gen::star(257), 10, FlatAlgo::Ghaffari),
        "geo1500_bounded_arb" => {
            let mut r = rand::rngs::StdRng::seed_from_u64(13);
            let g = gen::random_geometric(1500, 0.06, &mut r);
            // One iteration per scale leaves nodes active at each scale
            // end, and α = 1 understates the graph's arboricity, so scale
            // ends exile some of them to the bad set.
            let mode = ParamMode::Practical { lambda_scale: 1e-9 };
            let algo = FlatAlgo::BoundedArb {
                params: ArbParams::new(1, g.max_degree(), mode),
                rho_cutoff: true,
            };
            (g, 11, algo)
        }
        _ => unreachable!(),
    }
}

/// The fingerprint row `name`'s workload computes.
fn computed(name: &'static str) -> Row {
    let (g, seed, algo) = workload(name);
    let (run, t) = Simulator::new(&g, seed)
        .run_traced(&MisProtocol(algo), 100_000)
        .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
    (
        name,
        t.digest(),
        run.metrics.rounds,
        run.metrics.messages,
        run.metrics.bits,
        run.metrics.max_message_bits,
        state_fingerprint(&run.states),
    )
}

fn check_golden(name: &str) {
    let golden = *GOLDEN
        .iter()
        .find(|g| g.0 == name)
        .expect("unknown workload");
    let got = computed(golden.0);
    if got == golden {
        return;
    }
    for &(name, ..) in &GOLDEN {
        let (name, digest, rounds, messages, bits, max_bits, state_fp) = computed(name);
        println!("    (\n        \"{name}\",\n        {digest:#018x},\n        {rounds},");
        println!("        {messages},\n        {bits},\n        {max_bits},");
        println!("        {state_fp:#018x},\n    ),");
    }
    panic!("{name}: computed {got:x?}, golden {golden:x?} (computed table printed above)");
}

#[test]
fn golden_gnp300_dense_metivier() {
    check_golden("gnp300_dense_metivier");
}

#[test]
fn golden_gnp150_half_luby() {
    check_golden("gnp150_half_luby");
}

#[test]
fn golden_star400_metivier() {
    check_golden("star400_metivier");
}

#[test]
fn golden_star257_ghaffari() {
    check_golden("star257_ghaffari");
}

#[test]
fn golden_geo1500_bounded_arb() {
    check_golden("geo1500_bounded_arb");
}

// --------------------------------------------------------------- ordering

/// Asserts, from inside `round()`, the invariant that replaced the deleted
/// per-round inbox sorts: entries ascend strictly by sender and cover
/// exactly the sending neighbors, and every payload is the sender's id.
///
/// Round 0: even nodes broadcast their id; odd nodes unicast their id to
/// each neighbor individually (exercising both emission paths and their
/// interleaving in one inbox). Round 1: verify and halt.
#[derive(Clone, Copy, Debug)]
struct OrderProbe;

#[derive(Clone, Debug)]
struct ProbeState {
    ok: bool,
    done: bool,
}

impl Protocol for OrderProbe {
    type State = ProbeState;
    type Msg = u64;

    fn init(&self, _node: &NodeInfo) -> ProbeState {
        ProbeState {
            ok: false,
            done: false,
        }
    }

    fn round(&self, st: &mut ProbeState, node: &NodeInfo, inbox: &Inbox<u64>) -> Outgoing<u64> {
        if node.round == 0 {
            return if node.id.is_multiple_of(2) {
                Outgoing::Broadcast(node.id as u64)
            } else {
                Outgoing::Unicast(node.neighbors.iter().map(|u| (u, node.id as u64)).collect())
            };
        }
        let senders: Vec<NodeId> = inbox.iter().map(|(s, _)| s).collect();
        let sorted = senders.windows(2).all(|w| w[0] < w[1]);
        let complete = node.neighbors == senders;
        let payloads_match = inbox.iter().all(|(s, &m)| m == s as u64);
        // `first()` is the smallest-id sender.
        let first_is_min = inbox.first().map(|(s, _)| s) == node.neighbors.get(0);
        st.ok = sorted && complete && payloads_match && first_is_min;
        st.done = true;
        Outgoing::Halt
    }

    fn is_done(&self, st: &ProbeState) -> bool {
        st.done
    }
}

#[test]
fn inbox_delivery_is_sorted_by_sender() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let graphs = [
        gen::gnp(200, 0.1, &mut rng),
        gen::star(150),
        gen::complete(40),
    ];
    for g in &graphs {
        let run = Simulator::new(g, 5).run(&OrderProbe, 10).unwrap();
        assert!(
            run.states.iter().all(|s| s.ok),
            "delivery out of order on {g}"
        );
    }
}
