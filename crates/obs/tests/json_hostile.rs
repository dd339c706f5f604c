//! `lip_obs::json::parse` reads user files (`lip_diff`, the run store,
//! the benchmark harness), so no input may make it panic: arbitrary
//! bytes, and truncated or mutated copies of the committed artefacts,
//! all return `Ok` or `Err`.

use std::path::PathBuf;
use std::sync::OnceLock;

use lip_obs::json::parse;
use proptest::prelude::*;

/// The committed artefacts: `baselines/*.json` and the root
/// `BENCH_*.json` files.
fn committed() -> &'static [Vec<u8>] {
    static FILES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FILES.get_or_init(read_committed)
}

fn read_committed() -> Vec<Vec<u8>> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in [root.join("baselines"), root.clone()] {
        for entry in std::fs::read_dir(&dir).expect("artefact directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let wanted = if dir == root {
                name.starts_with("BENCH_")
            } else {
                true
            };
            if wanted && name.ends_with(".json") {
                files.push(std::fs::read(&path).expect("artefact readable"));
            }
        }
    }
    assert!(
        files.len() >= 7,
        "expected the committed artefacts, found {}",
        files.len()
    );
    files
}

fn parse_bytes(bytes: &[u8]) -> Result<lip_obs::Json, String> {
    parse(&String::from_utf8_lossy(bytes))
}

#[test]
fn committed_artefacts_parse_and_every_truncation_is_handled() {
    for file in committed() {
        parse_bytes(file).expect("committed artefact parses");
        for cut in 0..file.len() {
            let _ = parse_bytes(&file[..cut]);
        }
    }
}

/// Bytes that steer random documents into the parser's branches.
const ALPHABET: &[u8] = b"[]{}\",:\\/u0123456789abcdefABCDEF.eE+- \n\ttrunlfsD8";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_bytes(&bytes);
    }

    #[test]
    fn json_alphabet_soup_never_panics(
        picks in proptest::collection::vec(0..ALPHABET.len(), 0..256)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = parse_bytes(&bytes);
    }

    #[test]
    fn single_byte_mutations_never_panic(
        file in 0usize..64,
        at in any::<usize>(),
        byte in any::<u8>(),
        from_alphabet in any::<bool>(),
        pick in 0..ALPHABET.len(),
    ) {
        let files = committed();
        let mut doc = files[file % files.len()].clone();
        let at = at % doc.len();
        doc[at] = if from_alphabet { ALPHABET[pick] } else { byte };
        let _ = parse_bytes(&doc);
    }
}
