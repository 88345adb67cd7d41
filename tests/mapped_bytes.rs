//! Pins the mapper's output bytes.
//!
//! Every entry is the FNV-1a-64 hash of `write_lut_blif` over one
//! (circuit, K): the twelve suite circuits raw and optimized, and the
//! three large netlists as the `map_large` benchmark builds them
//! (generated, optimized, written and re-parsed), at K = 2..8 so the
//! multi-word truth-table path is covered. Each (circuit, K) is mapped
//! under every cache mode (`off`, `shared`, `fn`), and all three
//! outputs must hash to the one pinned value. A
//! 15-stage, 64-bit register pipeline pins `write_mapped_design_blif`
//! through `map_design` the same way.
//!
//! The tables were generated from the mapper before its hot path was
//! reworked; a mismatch means the output bytes changed. The failure
//! message prints the whole table as computed, for an intended change.

use chortle::{map_design, map_network, CacheMode, DesignOptions, MapOptions};
use chortle_bench::baseline::{baseline_simplified, baseline_write_lut_blif};
use chortle_bench::pipelined_design;
use chortle_circuits::{alu, des_like, random_logic, suite};
use chortle_logic_opt::optimize;
use chortle_netlist::{parse_blif, parse_design, write_blif, write_lut_blif, Network, SplitMix64};

/// LUT sizes every circuit is mapped at.
const KS: std::ops::RangeInclusive<usize> = 2..=8;

/// Cache modes every (circuit, K) is mapped under.
const CACHES: [CacheMode; 3] = [CacheMode::Off, CacheMode::Shared, CacheMode::Fn];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn options(k: usize, cache: CacheMode) -> MapOptions {
    MapOptions::builder(k)
        .cache(cache)
        .build()
        .expect("K = 2..8 is valid")
}

/// The one hash of `net` mapped at `k` under every cache mode; panics if
/// any two of them differ.
fn mapped_hash(name: &str, net: &Network, k: usize) -> u64 {
    let mut pinned: Option<u64> = None;
    for cache in CACHES {
        let mapping =
            map_network(net, &options(k, cache)).unwrap_or_else(|e| panic!("{name}@K{k}: {e}"));
        let hash = fnv1a64(write_lut_blif(net, &mapping.circuit, "mapped").as_bytes());
        match pinned {
            None => pinned = Some(hash),
            Some(first) => assert_eq!(
                first, hash,
                "{name}@K{k}: cache {cache:?} differs from cache off"
            ),
        }
    }
    pinned.expect("at least one mode")
}

/// Hashes every circuit at every K and compares with `table`; on a
/// mismatch, lists the differing entries and prints the computed table.
fn check_table(circuits: &[(String, Network)], table: &[(&str, usize, u64)]) {
    let got: Vec<(String, usize, u64)> = circuits
        .iter()
        .flat_map(|(name, net)| KS.map(move |k| (name.clone(), k, mapped_hash(name, net, k))))
        .collect();
    let mut diffs = Vec::new();
    for (i, (name, k, hash)) in got.iter().enumerate() {
        match table.get(i) {
            Some(&(n, kk, h)) if n == name && kk == *k && h == *hash => {}
            want => diffs.push(format!("{name}@K{k}: got {hash:#018x}, pinned {want:?}")),
        }
    }
    if got.len() != table.len() {
        diffs.push(format!("{} entries, {} pinned", got.len(), table.len()));
    }
    if !diffs.is_empty() {
        let rows: String = got
            .iter()
            .map(|(name, k, hash)| format!("    ({name:?}, {k}, {hash:#018x}),\n"))
            .collect();
        panic!(
            "mapped bytes changed:\n{}\ncomputed table:\n{rows}",
            diffs.join("\n")
        );
    }
}

#[test]
fn suite_mappings_keep_their_bytes() {
    let mut circuits = Vec::new();
    for b in suite() {
        let (optimized, _) = optimize(&b.network).expect("benchmarks are acyclic");
        circuits.push((format!("{}.raw", b.name), b.network));
        circuits.push((format!("{}.opt", b.name), optimized));
    }
    check_table(&circuits, SUITE);
}

#[test]
fn large_mappings_keep_their_bytes() {
    // The `map_large` corpus at seed 1: the same sub-seeds, generators
    // and parameters, optimized, then written and re-parsed.
    let mut rng = SplitMix64::new(1 ^ 0x5EED_BE4C_0000_0000);
    let s = [rng.next_u64(), rng.next_u64()];
    let optimized = |net| optimize(&net).expect("generated netlists are acyclic").0;
    let nets = [
        ("random7k", optimized(random_logic(s[0], 600, 7000, 400, 4))),
        ("des64x6", optimized(des_like(s[1], 64, 6))),
        ("alu256", optimized(alu(256))),
    ];
    let circuits: Vec<(String, Network)> = nets
        .iter()
        .map(|(name, net)| {
            let net = parse_blif(&write_blif(net, name)).expect("written BLIF parses");
            ((*name).to_owned(), net)
        })
        .collect();
    check_table(&circuits, LARGE);
}

#[test]
fn design_mapping_keeps_its_bytes() {
    let (design, _) = parse_design(&pipelined_design("pipe", 15, 64)).expect("pipeline parses");
    for cache in CACHES {
        let mut opts = DesignOptions::new(options(4, cache));
        opts.verify = false;
        let mapped = map_design(&design, &opts).expect("pipeline maps");
        assert_eq!(
            fnv1a64(mapped.netlist.as_bytes()),
            PIPE15X64_K4,
            "pipe15x64@K4: cache {cache:?}"
        );
    }
}

#[test]
fn frozen_copies_match_the_live_code() {
    for b in suite() {
        let (optimized, _) = optimize(&b.network).expect("benchmarks are acyclic");
        for net in [&b.network, &optimized] {
            let normal = net.simplified();
            assert_eq!(baseline_simplified(net), normal, "{}", b.name);
            for k in [2, 4, 7] {
                let mapping = map_network(net, &options(k, CacheMode::Shared)).expect("maps");
                assert_eq!(
                    baseline_write_lut_blif(net, &mapping.circuit, "mapped"),
                    write_lut_blif(net, &mapping.circuit, "mapped"),
                    "{}@K{k}",
                    b.name
                );
            }
        }
    }
}

/// `write_mapped_design_blif` of the 15×64 pipeline at K = 4.
const PIPE15X64_K4: u64 = 0x281e_46c1_c6d7_4486;

/// (circuit, K, hash) for the suite, raw and optimized.
const SUITE: &[(&str, usize, u64)] = &[
    ("9symml.raw", 2, 0x0ebe85bcb20d43a9),
    ("9symml.raw", 3, 0x03f897b4981a7bde),
    ("9symml.raw", 4, 0xfd3881d163b4a320),
    ("9symml.raw", 5, 0xadbc809c897fd2ed),
    ("9symml.raw", 6, 0xf8872591c6cb5806),
    ("9symml.raw", 7, 0xe632e4ef765b7922),
    ("9symml.raw", 8, 0x06f197bebe500f1f),
    ("9symml.opt", 2, 0x87df03edeb5fc07b),
    ("9symml.opt", 3, 0x6344dfd3c8a6595a),
    ("9symml.opt", 4, 0x3a19334d307e2435),
    ("9symml.opt", 5, 0xaa4e7e8fb93bbe9f),
    ("9symml.opt", 6, 0x6bea4eccbfba85de),
    ("9symml.opt", 7, 0xf67bb1fc2ea08e9f),
    ("9symml.opt", 8, 0x4ec71de702e5c5d6),
    ("alu2.raw", 2, 0xec4610351194ea7d),
    ("alu2.raw", 3, 0x964002c5b8bcfe58),
    ("alu2.raw", 4, 0x25d22d6ff75339a8),
    ("alu2.raw", 5, 0x2fb69be5c9039879),
    ("alu2.raw", 6, 0x959ec92bd85e2577),
    ("alu2.raw", 7, 0xa3e70c8bdf56440e),
    ("alu2.raw", 8, 0x69bc282617c09c55),
    ("alu2.opt", 2, 0x92071d079bfd3849),
    ("alu2.opt", 3, 0x4e49d398c466272c),
    ("alu2.opt", 4, 0xae35c88d71a1aae7),
    ("alu2.opt", 5, 0x54809f742b3219ec),
    ("alu2.opt", 6, 0xb16ab1b4f8a6806b),
    ("alu2.opt", 7, 0xef4aaf6c4a4209c9),
    ("alu2.opt", 8, 0x0ac818cbdc9ff4ae),
    ("alu4.raw", 2, 0x98821daa91f88039),
    ("alu4.raw", 3, 0xb894ca68dd2fcd46),
    ("alu4.raw", 4, 0x78fe140317a5e4b4),
    ("alu4.raw", 5, 0x785f26cca5a14459),
    ("alu4.raw", 6, 0x405c9dcd435a373c),
    ("alu4.raw", 7, 0xdb21a671cb455bae),
    ("alu4.raw", 8, 0x0be1830b1f3dbddd),
    ("alu4.opt", 2, 0x6273b0f4ebe041d6),
    ("alu4.opt", 3, 0x903ce358a7cd2a55),
    ("alu4.opt", 4, 0xd8bf5ca6fffc0fff),
    ("alu4.opt", 5, 0xd7719bda5d07f7e0),
    ("alu4.opt", 6, 0xf0ee3dc1af095533),
    ("alu4.opt", 7, 0x6438d9c1be62249b),
    ("alu4.opt", 8, 0x5c0f535f7f3a19c2),
    ("apex6.raw", 2, 0x555886494f094385),
    ("apex6.raw", 3, 0x2610aa31cdc039c4),
    ("apex6.raw", 4, 0x36f3436f508ad4dc),
    ("apex6.raw", 5, 0xcaba0f1682964361),
    ("apex6.raw", 6, 0xab370f3e699a345a),
    ("apex6.raw", 7, 0x722d57286b55e248),
    ("apex6.raw", 8, 0x1231cefab1539c1d),
    ("apex6.opt", 2, 0x39ea8a66978262f9),
    ("apex6.opt", 3, 0x91ae94468d23d8ba),
    ("apex6.opt", 4, 0x34718f1c35260a9f),
    ("apex6.opt", 5, 0xc08b5528443d91d2),
    ("apex6.opt", 6, 0xbd737ecc9733125a),
    ("apex6.opt", 7, 0xb6055fd809c3b502),
    ("apex6.opt", 8, 0x2a85e99e73440809),
    ("apex7.raw", 2, 0x6c3480e7fb455ccc),
    ("apex7.raw", 3, 0x51c96edd455fbb7d),
    ("apex7.raw", 4, 0xd8903dcb79a8105c),
    ("apex7.raw", 5, 0x61c7b047d3fb3760),
    ("apex7.raw", 6, 0xda8697af1f899b5b),
    ("apex7.raw", 7, 0xfcb5131f3fad4138),
    ("apex7.raw", 8, 0xf5dd8be9fb282bb3),
    ("apex7.opt", 2, 0xd67030bc3f2a74e8),
    ("apex7.opt", 3, 0xd7af23969a67294d),
    ("apex7.opt", 4, 0x844306d52c3e2cef),
    ("apex7.opt", 5, 0xd986c5d51d4ab094),
    ("apex7.opt", 6, 0x4ed45e351e860ab5),
    ("apex7.opt", 7, 0x8d1e1e938faf2af7),
    ("apex7.opt", 8, 0x81724026eccb30ee),
    ("count.raw", 2, 0x71b51b9add37c41e),
    ("count.raw", 3, 0x2850f718b5fb030c),
    ("count.raw", 4, 0x5a4f6a414adfa492),
    ("count.raw", 5, 0x681b889b0830cd6a),
    ("count.raw", 6, 0xca56610a8c5c4efe),
    ("count.raw", 7, 0x7fcc6d5f142292d4),
    ("count.raw", 8, 0x1c206f649cba6964),
    ("count.opt", 2, 0xbd3ae418430bd6d6),
    ("count.opt", 3, 0x2baeaf15481488f6),
    ("count.opt", 4, 0x83878b070ac3ce58),
    ("count.opt", 5, 0xd1a86bd6a3583f4a),
    ("count.opt", 6, 0xee9aa7a0f26eccae),
    ("count.opt", 7, 0xa0ed5ff423597ec4),
    ("count.opt", 8, 0x4bdb3d403ed024a0),
    ("des.raw", 2, 0x4ca5d10b96700b52),
    ("des.raw", 3, 0x931973fae24381e6),
    ("des.raw", 4, 0x0320137904146edf),
    ("des.raw", 5, 0x54912506f147c58b),
    ("des.raw", 6, 0x29772743521a0d48),
    ("des.raw", 7, 0xf80d478b50adb06a),
    ("des.raw", 8, 0x382175874c8fcb57),
    ("des.opt", 2, 0xa8cf6232ce6cfb16),
    ("des.opt", 3, 0xc706093da75e97b3),
    ("des.opt", 4, 0xa141c7036e844f70),
    ("des.opt", 5, 0x67ddef89a95c3693),
    ("des.opt", 6, 0x07af3bac8642c0af),
    ("des.opt", 7, 0x1ec9251420b0762e),
    ("des.opt", 8, 0x0a7bc0c1376bc0bb),
    ("frg1.raw", 2, 0x793cb62218b6f75f),
    ("frg1.raw", 3, 0xc5f02e38988f54e9),
    ("frg1.raw", 4, 0x08d613cf0e21ddea),
    ("frg1.raw", 5, 0xf2123475c4e634d3),
    ("frg1.raw", 6, 0xafc9152a30f2cb73),
    ("frg1.raw", 7, 0x36407ff38cabfa6e),
    ("frg1.raw", 8, 0x2c296cf31462ea4a),
    ("frg1.opt", 2, 0x39a39d9bf920cdbf),
    ("frg1.opt", 3, 0x70be43601ad44a3f),
    ("frg1.opt", 4, 0xf30db8807195f756),
    ("frg1.opt", 5, 0x2710514ae2b6446d),
    ("frg1.opt", 6, 0x278490fe82fd7ccb),
    ("frg1.opt", 7, 0xa45bb904ca3345f6),
    ("frg1.opt", 8, 0xc8ff86acd993e846),
    ("frg2.raw", 2, 0x3f7b8d1efdbb4ded),
    ("frg2.raw", 3, 0xa42574c2612cf831),
    ("frg2.raw", 4, 0xc62c38a460bf3c35),
    ("frg2.raw", 5, 0x4627b404511bccd2),
    ("frg2.raw", 6, 0xd9b142d9a30bdd27),
    ("frg2.raw", 7, 0x7b74e986cadbf462),
    ("frg2.raw", 8, 0x855571b74a270ca7),
    ("frg2.opt", 2, 0xafcf3ac83b1bc202),
    ("frg2.opt", 3, 0xec098e30453cc682),
    ("frg2.opt", 4, 0xcc95bf0e5f662217),
    ("frg2.opt", 5, 0x4779daad0a68dc72),
    ("frg2.opt", 6, 0xf6557fbdb1034d97),
    ("frg2.opt", 7, 0xcfe2a3b86adb3e9e),
    ("frg2.opt", 8, 0x8f145e892140b106),
    ("k2.raw", 2, 0xd4a1303cef9e11e4),
    ("k2.raw", 3, 0xbe612d6b70ab4cb5),
    ("k2.raw", 4, 0xc7eed79af8550b77),
    ("k2.raw", 5, 0x99d1fc6f122c8017),
    ("k2.raw", 6, 0xaa7b319dbba19712),
    ("k2.raw", 7, 0x135a3c52721a5117),
    ("k2.raw", 8, 0xe917f6398153019b),
    ("k2.opt", 2, 0x8c7d562f83629169),
    ("k2.opt", 3, 0x1ef15644edefdc42),
    ("k2.opt", 4, 0x19ff4efc7cbeb100),
    ("k2.opt", 5, 0x13be34b08f3d832f),
    ("k2.opt", 6, 0xf3c9159c42d09af8),
    ("k2.opt", 7, 0x4f96a8e0d434051c),
    ("k2.opt", 8, 0x862383535eec910b),
    ("pair.raw", 2, 0x72512b3e0ff165ba),
    ("pair.raw", 3, 0x7f921b34c131a57e),
    ("pair.raw", 4, 0x1714c0b8c2d3302b),
    ("pair.raw", 5, 0x16a06d5cdc24a29e),
    ("pair.raw", 6, 0x747adf5331033e09),
    ("pair.raw", 7, 0xb070c0f032616b09),
    ("pair.raw", 8, 0xfd910b12fd9005dc),
    ("pair.opt", 2, 0x15984554de4f052f),
    ("pair.opt", 3, 0x1bc721971084b5d6),
    ("pair.opt", 4, 0x6b5330d218edca48),
    ("pair.opt", 5, 0x9f45a97d5af52990),
    ("pair.opt", 6, 0xdbe3c4ee178d286c),
    ("pair.opt", 7, 0x5859d4411b42835d),
    ("pair.opt", 8, 0x6161c1f1664173bb),
    ("rot.raw", 2, 0xce69b68a65680ac8),
    ("rot.raw", 3, 0x1ea2a1eca6dd6690),
    ("rot.raw", 4, 0x0caabae3f3edd62c),
    ("rot.raw", 5, 0x2ff672915d0776e4),
    ("rot.raw", 6, 0xe2d1a25da00c4541),
    ("rot.raw", 7, 0x6c56046ae7327c6a),
    ("rot.raw", 8, 0x52934606b5f02ec4),
    ("rot.opt", 2, 0xdca132f393397b23),
    ("rot.opt", 3, 0x2f06b04a6a767916),
    ("rot.opt", 4, 0xe48660450de9f6e7),
    ("rot.opt", 5, 0x9be4e7ce5c1e7e30),
    ("rot.opt", 6, 0x49b09f0598a0a958),
    ("rot.opt", 7, 0xe227e5dc9afebd28),
    ("rot.opt", 8, 0x59696138efa23dc2),
];

/// (circuit, K, hash) for the `map_large` netlists at seed 1.
const LARGE: &[(&str, usize, u64)] = &[
    ("random7k", 2, 0xb289d8454969ac78),
    ("random7k", 3, 0x288925bdcd2b64f5),
    ("random7k", 4, 0xbe00d0228329701f),
    ("random7k", 5, 0x305dcb0a9a95bd53),
    ("random7k", 6, 0x578f9db5ccdf3266),
    ("random7k", 7, 0xb6ede83a9be482da),
    ("random7k", 8, 0xd8a73282fb1488cf),
    ("des64x6", 2, 0x958007739746a4f7),
    ("des64x6", 3, 0xa35fe668da4f7c36),
    ("des64x6", 4, 0x989234bc39d2cc7f),
    ("des64x6", 5, 0x02a01dc13b3511f5),
    ("des64x6", 6, 0x5d367b8382823f1e),
    ("des64x6", 7, 0xcece5a7f77c539f5),
    ("des64x6", 8, 0x79b46357a70aaa86),
    ("alu256", 2, 0x6ffbc7cfaf53b024),
    ("alu256", 3, 0xa307fead8288d95a),
    ("alu256", 4, 0x699621bad4f4fe15),
    ("alu256", 5, 0x5909b75106582cc8),
    ("alu256", 6, 0x30a639ad0e1bf6b2),
    ("alu256", 7, 0x30a639ad0e1bf6b2),
    ("alu256", 8, 0xee234042b7244841),
];
