//! Byte-identity pins for the graph layer.
//!
//! Every generator funnels through `GraphBuilder::build`, and the peeling
//! routines read the CSR it lays out. This test pins the FNV-128 digest
//! of `offsets` and `adj` for every `GraphFamily` at two seeds and for
//! the three large generators the benchmark runs at 10⁵ nodes, together
//! with each graph's degeneracy and the digests of its coreness vector
//! and of its smallest-last `order`. A rewrite of a generator, of the
//! builder or of a peel must leave every row unchanged.
//!
//! On a mismatch the test prints the full table it computed, so a
//! deliberate change of output can be reviewed row by row.

use arbmis::graph::cores::core_decomposition;
use arbmis::graph::digest::Fnv128;
use arbmis::graph::gen::{self, GraphFamily, GraphSpec};
use arbmis::graph::orientation::degeneracy_ordering;
use arbmis::graph::{arboricity, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Digest of a sequence of integers, each as 8 little-endian bytes.
fn digest_words(words: impl IntoIterator<Item = usize>) -> String {
    let mut h = Fnv128::new();
    for w in words {
        h.write_u64(w as u64);
    }
    h.hex()
}

/// One table row: label, CSR digest, degeneracy, coreness digest and
/// smallest-last order digest.
fn row(label: &str, g: &Graph) -> String {
    let (offsets, adj) = g.as_csr();
    let mut h = Fnv128::new();
    for &o in offsets {
        h.write_u64(o as u64);
    }
    for &v in adj {
        h.write_u64(v as u64);
    }
    let cores = core_decomposition(g);
    let ord = degeneracy_ordering(g);
    assert_eq!(cores.degeneracy, ord.degeneracy, "{label}");
    assert_eq!(arboricity::degeneracy(g), ord.degeneracy, "{label}");
    format!(
        "{label} n={} m={} csr={} degen={} core={} order={}",
        g.n(),
        g.m(),
        h.hex(),
        ord.degeneracy,
        digest_words(cores.coreness.iter().copied()),
        digest_words(ord.order.iter().copied()),
    )
}

const FAMILIES: [GraphFamily; 15] = [
    GraphFamily::Path,
    GraphFamily::Cycle,
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar { legs: 3 },
    GraphFamily::ForestUnion { alpha: 3 },
    GraphFamily::KTree { k: 3 },
    GraphFamily::Apollonian,
    GraphFamily::BarabasiAlbert { m: 2 },
    GraphFamily::GnpAvgDegree { d: 4.0 },
    GraphFamily::Grid,
    GraphFamily::Hypercube,
    GraphFamily::SeriesParallel,
    GraphFamily::RingOfCliques { k: 4 },
    GraphFamily::Geometric { radius: 0.1 },
    GraphFamily::PowerlawCluster { m: 2, p: 0.5 },
];

fn table() -> Vec<String> {
    let mut rows = Vec::new();
    for fam in FAMILIES {
        for seed in [1u64, 2] {
            let g = GraphSpec::new(fam, 500).generate(&mut StdRng::seed_from_u64(seed));
            rows.push(row(&format!("{fam}[500]@{seed}"), &g));
        }
    }
    let n = 100_000;
    let rng = || StdRng::seed_from_u64(1);
    let big = [
        ("random_ktree(k=3)", gen::random_ktree(n, 3, &mut rng())),
        ("random_tree_prufer", gen::random_tree_prufer(n, &mut rng())),
        (
            "gnp_with_expected_degree(d=4)",
            gen::gnp_with_expected_degree(n, 4.0, &mut rng()),
        ),
    ];
    for (name, g) in &big {
        rows.push(row(&format!("{name}[{n}]@1"), g));
    }
    rows
}

const EXPECTED: &[&str] = &[
    "path[500]@1 n=500 m=499 csr=5c63499e6a9af0020bc0a6a685c217b4 degen=1 core=e650a185220dc079dc67e6ffef08c84d order=4fdd538e72c4d0858953e786a1ef0141",
    "path[500]@2 n=500 m=499 csr=5c63499e6a9af0020bc0a6a685c217b4 degen=1 core=e650a185220dc079dc67e6ffef08c84d order=4fdd538e72c4d0858953e786a1ef0141",
    "cycle[500]@1 n=500 m=500 csr=329db66a694f60768dcbcda0bd929770 degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=4fdd538e72c4d0858953e786a1ef0141",
    "cycle[500]@2 n=500 m=500 csr=329db66a694f60768dcbcda0bd929770 degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=4fdd538e72c4d0858953e786a1ef0141",
    "tree[500]@1 n=500 m=499 csr=f458a7ab6100b125b1ecddbb597534e3 degen=1 core=e650a185220dc079dc67e6ffef08c84d order=11f8437e9c682e5c2850cf3a3c664ce5",
    "tree[500]@2 n=500 m=499 csr=f7a3cee316d27ec1e9114e04cc415e9f degen=1 core=e650a185220dc079dc67e6ffef08c84d order=dbe8e56213a2dcc104d5ae63a85ef7d9",
    "caterpillar(l=3)[500]@1 n=500 m=499 csr=e9ad0325907f127ed1e32d510b67c095 degen=1 core=e650a185220dc079dc67e6ffef08c84d order=c785d4000a4253596978f9d2b054d949",
    "caterpillar(l=3)[500]@2 n=500 m=499 csr=e9ad0325907f127ed1e32d510b67c095 degen=1 core=e650a185220dc079dc67e6ffef08c84d order=c785d4000a4253596978f9d2b054d949",
    "forests(α=3)[500]@1 n=500 m=1418 csr=408ddca8c1be75fea2f3917f27b00838 degen=4 core=65ebbdd830a23164d476441e79e3526b order=0898d9658ea53493ddfa0eb2610a9321",
    "forests(α=3)[500]@2 n=500 m=1417 csr=fb494f02f0f6d8de832ff1521095c5ab degen=4 core=a77ea9c5f57bb39b520ada4a378f072f order=91cf180cf7a747b91196347829a61d99",
    "ktree(k=3)[500]@1 n=500 m=1494 csr=1497e1309f0d37e1762fdea8ee51420b degen=3 core=7c8912044d592475251d85794f9b39cd order=d0ed9bc72d59683c18510c9200f41321",
    "ktree(k=3)[500]@2 n=500 m=1494 csr=7bfa01e5cf04d6b63e629ad7109ce598 degen=3 core=7c8912044d592475251d85794f9b39cd order=a81bdc677ba37ede33e754efc78e41b1",
    "apollonian[500]@1 n=500 m=1494 csr=354a19ccb9c27112efd5983d3a81c6c4 degen=3 core=7c8912044d592475251d85794f9b39cd order=083f0d46ebb7acb400512284a42413cd",
    "apollonian[500]@2 n=500 m=1494 csr=eae21734c4945b0061d8e69709ddb27d degen=3 core=7c8912044d592475251d85794f9b39cd order=30f1e688a5b6246d87e31a59900f68ad",
    "ba(m=2)[500]@1 n=500 m=996 csr=9ba1b7e99e1c6396bf86aa05fd994a3f degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=09d09d52d66f46ed3f8562f59dafd879",
    "ba(m=2)[500]@2 n=500 m=996 csr=8fb7d7d616cc5378aed30f27580d25ff degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=571a2bf13a44f4e45d6ac2706de78661",
    "gnp(d=4)[500]@1 n=500 m=1017 csr=27f2bca719a30e164c1d8192926b8f48 degen=3 core=f075a57c1a515457defdb67ff96a02cf order=0a063316bc0fd8f117a6d5cfc3463ca5",
    "gnp(d=4)[500]@2 n=500 m=1052 csr=ccc4372642e471a56acfe01f2e45ef9d degen=3 core=a178437a75d44332a0fab8cf8f2b7bcc order=1b1b576229a34e80399b9bf881985649",
    "grid[500]@1 n=529 m=1012 csr=ee0cc649bf5c49ab92f26cefda3b378e degen=2 core=82d96be4f88a9a079220151ec16723af order=bd7734f2024e37c816696d9a00c9d3df",
    "grid[500]@2 n=529 m=1012 csr=ee0cc649bf5c49ab92f26cefda3b378e degen=2 core=82d96be4f88a9a079220151ec16723af order=bd7734f2024e37c816696d9a00c9d3df",
    "hypercube[500]@1 n=256 m=1024 csr=4beedda526efc36e951042d183d56555 degen=8 core=f7254f98a1b5b9354f8068e0b05ea58d order=28971db3b7b51489fa4a4f8b5f0fb50d",
    "hypercube[500]@2 n=256 m=1024 csr=4beedda526efc36e951042d183d56555 degen=8 core=f7254f98a1b5b9354f8068e0b05ea58d order=28971db3b7b51489fa4a4f8b5f0fb50d",
    "series-parallel[500]@1 n=500 m=769 csr=9a0753242bff98e4428d27cb99ac7288 degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=f19bad0823aaf1a48e23188285b3caa5",
    "series-parallel[500]@2 n=500 m=772 csr=84c25c14db48901933effe01f91adb12 degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=169582150c62ffabbd0d01095f9b3ded",
    "cliquering(k=4)[500]@1 n=500 m=875 csr=cb7b959ddff49d092933e727f4955e01 degen=3 core=7c8912044d592475251d85794f9b39cd order=440615fab0bab7bc1a04b6a76c898f39",
    "cliquering(k=4)[500]@2 n=500 m=875 csr=cb7b959ddff49d092933e727f4955e01 degen=3 core=7c8912044d592475251d85794f9b39cd order=440615fab0bab7bc1a04b6a76c898f39",
    "geometric(r=0.1)[500]@1 n=500 m=3643 csr=c7d6433353fa3f1becb9f1ae819b127c degen=12 core=05b9d5de6a012818acbbf2bb2ebfdf41 order=2fb018ae7792613e32170901ea0d1331",
    "geometric(r=0.1)[500]@2 n=500 m=3545 csr=539c17905f0d50e4fba2b0a5689d6bf9 degen=11 core=ae9990c05c488230849e5a046bc3158e order=039a1784e480e69c13d143c443700a95",
    "plc(m=2,p=0.5)[500]@1 n=500 m=996 csr=e1eba0d5b9a572c20a1601a9fef005cb degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=77704dc4b936f06e6e673807dae9fc0d",
    "plc(m=2,p=0.5)[500]@2 n=500 m=996 csr=5cd8c2c1ac7e974a20014a9f449bbc91 degen=2 core=47a54a43e2fed672c97854b5ffe4728d order=cbb3e507707578c8a8756e124d933a6d",
    "random_ktree(k=3)[100000]@1 n=100000 m=299994 csr=a5dce1641bb8f2dd8af0b74fca9226d0 degen=3 core=2ea7b4637a3edf49d5552a15eebf178d order=265b8f90d506726305cbe353f098f07d",
    "random_tree_prufer[100000]@1 n=100000 m=99999 csr=7ab81f4e90cf3f8b71d60ac58a92b9f9 degen=1 core=0781e36ad10430192d64be365b3f6b8d order=b69fa8b58355f6eb3bf557bb8b6494d5",
    "gnp_with_expected_degree(d=4)[100000]@1 n=100000 m=199489 csr=7cba07b700ce165a842be21aaf3ed788 degen=3 core=6db536f049a15f62a54e185d7867bdae order=0f527f968d68fd8170ca37c92db7f795",
];

#[test]
fn graph_layer_digests_are_pinned() {
    let rows = table();
    if rows != EXPECTED {
        for r in &rows {
            println!("    \"{r}\",");
        }
        panic!("graph-layer digests differ from the pinned table (computed table printed above)");
    }
}
