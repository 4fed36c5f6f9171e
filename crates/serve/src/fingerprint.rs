//! Content fingerprints for the result cache.
//!
//! The cache key is the pair *(netlist fingerprint, config fingerprint)*:
//! two submissions collide exactly when they optimize the same mapped
//! netlist under the same decision-relevant configuration, in which case
//! the whole run — placement seed included — is deterministic and the
//! cached QoR report is byte-identical to a recompute.

use rapids_flow::netlist::{blif, Network};
use rapids_flow::PipelineConfig;

/// 64-bit FNV-1a over a byte string — small, dependency-free, and stable
/// across platforms, which is all a process-local cache key needs (this is
/// not a cryptographic hash; a hostile netlist could engineer collisions).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of a mapped netlist's *content*: the canonical BLIF
/// serialization (topological order, tombstones skipped) extended with each
/// live gate's drive strength, which the BLIF dialect does not carry but
/// the sizing optimizers read.
pub fn netlist_fingerprint(network: &Network) -> u64 {
    let mut text = blif::write_string(network);
    for id in network.iter_live() {
        let gate = network.gate(id);
        text.push_str(&gate.name);
        text.push('=');
        text.push_str(&gate.size_class.to_string());
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Fingerprint of the full effective configuration.
///
/// Hashes the `Debug` rendering of the [`PipelineConfig`], which covers
/// every knob of every stage (placer, timing model, optimizer, seed,
/// mapping bound, verification), with `threads` and the hidden
/// `optimizer.threads` both rendered as 1.  No report byte depends on
/// either (`threads` only decides whether a job's three optimizers run
/// concurrently, and nothing reads `optimizer.threads`), so jobs that
/// differ only in thread counts share one cache entry, under the key a
/// `threads = 1` job always had.
pub fn config_fingerprint(config: &PipelineConfig) -> u64 {
    let mut keyed = config.clone();
    keyed.threads = 1;
    keyed.optimizer.threads = 1;
    fnv1a(format!("{keyed:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_flow::netlist::{GateType, NetworkBuilder};

    fn tiny(size_class: u8) -> Network {
        let mut b = NetworkBuilder::new("tiny");
        b.inputs(["a", "b"]);
        b.gate("f", GateType::Nand, &["a", "b"]);
        b.output("f");
        let mut n = b.finish().unwrap();
        let f = n.find_by_name("f").unwrap();
        n.gate_mut(f).size_class = size_class;
        n
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn netlist_fingerprint_sees_structure_and_sizes() {
        assert_eq!(netlist_fingerprint(&tiny(2)), netlist_fingerprint(&tiny(2)));
        // Same structure, different drive strength: must not collide —
        // sizing reads the strengths even though BLIF does not carry them.
        assert_ne!(netlist_fingerprint(&tiny(2)), netlist_fingerprint(&tiny(3)));
    }

    #[test]
    fn config_fingerprint_sees_every_knob() {
        let base = PipelineConfig::default();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base.clone()));
        for mutated in [
            PipelineConfig { seed: base.seed + 1, ..base.clone() },
            PipelineConfig { map_max_fanin: 3, ..base.clone() },
            PipelineConfig::fast(),
        ] {
            assert_ne!(config_fingerprint(&base), config_fingerprint(&mutated));
        }
        // Thread counts change no report byte, so they change no key.
        let mut threaded = PipelineConfig { threads: 2, ..base.clone() };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&threaded));
        threaded.optimizer.threads = 2;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&threaded));
        let mut es = base.clone();
        es.optimizer.include_inverting_swaps = true;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&es));
    }
}
