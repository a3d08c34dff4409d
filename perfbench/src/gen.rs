//! Seeded input generation. Every byte the services receive is derived
//! here from the workload seed, so one seed always produces one input set.

use std::collections::BTreeMap;

/// The splitmix64 generator: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for `(seed, a, b)`.
    pub fn derive(seed: u64, a: u64, b: u64) -> Self {
        let mut root = SplitMix(seed ^ a.wrapping_mul(0xa076_1d64_78bd_642f));
        let mixed = root.next_u64() ^ b.wrapping_mul(0xe703_7ed1_a0b4_28db);
        SplitMix(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The static body every back-end serves: 137 printable bytes, the
/// payload size of the paper's web-server experiments.
pub fn http_body(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix::derive(seed, 0xb0d7, 0);
    (0..137).map(|_| b'a' + rng.below(26) as u8).collect()
}

/// The request line path of request `index` of client `client`. Paths are
/// distinct across clients and requests; the random part makes the
/// balancer's hash routing depend on the seed.
pub fn request_path(seed: u64, client: usize, index: u64) -> String {
    let mut rng = SplitMix::derive(seed, client as u64 + 1, index);
    format!("/c{client}/r{index}/{:016x}", rng.next_u64())
}

/// The wire bytes of one GET request; `close` adds `Connection: close`.
pub fn request_bytes(path: &str, close: bool, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// The wordcount vocabulary: `n` distinct lowercase words of `len` letters.
pub fn word_dictionary(seed: u64, n: usize, len: usize) -> Vec<String> {
    let mut rng = SplitMix::derive(seed, 0x0d1c, 0);
    let mut words = std::collections::BTreeSet::new();
    while words.len() < n {
        let word: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        words.insert(word);
    }
    words.into_iter().collect()
}

/// One mapper's share of an aggregation round: the serialised records and
/// the per-word totals they carry.
#[derive(Debug, Clone)]
pub struct MapperStream {
    pub bytes: Vec<u8>,
    pub records: usize,
    pub totals: BTreeMap<String, u64>,
}

/// Appends one Hadoop intermediate record (`u32` key length, `u32` value
/// length, key, value; all big endian).
pub fn push_kv(out: &mut Vec<u8>, key: &str, value: &str) {
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(value.as_bytes());
}

/// The wordcount records mapper `mapper` sends in round `round`: words
/// drawn from `dict`, each with a count of 1 to 9, until `target_bytes`.
pub fn mapper_stream(
    seed: u64,
    round: u64,
    mapper: usize,
    dict: &[String],
    target_bytes: usize,
) -> MapperStream {
    let mut rng = SplitMix::derive(seed, 0x4a9 + mapper as u64, round);
    let mut bytes = Vec::with_capacity(target_bytes + 32);
    let mut totals = BTreeMap::new();
    let mut records = 0;
    while bytes.len() < target_bytes {
        let word = &dict[rng.below(dict.len() as u64) as usize];
        let count = 1 + rng.below(9);
        push_kv(&mut bytes, word, &count.to_string());
        *totals.entry(word.clone()).or_insert(0) += count;
        records += 1;
    }
    MapperStream {
        bytes,
        records,
        totals,
    }
}

/// Ground truth of a round: the per-word sums over every mapper.
pub fn merge_totals(streams: &[MapperStream]) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for stream in streams {
        for (word, count) in &stream.totals {
            *totals.entry(word.clone()).or_insert(0) += count;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(request_path(7, 0, 3), request_path(7, 0, 3));
        assert_ne!(request_path(7, 0, 3), request_path(8, 0, 3));
        assert_ne!(request_path(7, 0, 3), request_path(7, 1, 3));
        let dict = word_dictionary(7, 128, 8);
        assert_eq!(dict.len(), 128);
        assert!(dict.iter().all(|w| w.len() == 8));
        let a = mapper_stream(7, 0, 0, &dict, 4096);
        let b = mapper_stream(7, 0, 0, &dict, 4096);
        assert_eq!(a.bytes, b.bytes);
        assert!(a.bytes.len() >= 4096);
        let sum: u64 = a.totals.values().sum();
        assert!(sum >= a.records as u64);
    }
}
