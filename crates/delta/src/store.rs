//! The content-addressed run-artifact store.
//!
//! A *run* is one sweep's worth of artifacts — `BENCH_*.json` reports,
//! `BLAME_*.json` profiles, the `BENCH_check.json` proof matrix —
//! captured together under `target/runs/<run_id>/` with a manifest
//! recording where they came from (git SHA and host fingerprint) and
//! which schema versions were current. The run
//! id is a digest of the artifact contents, so committing the same
//! sweep twice is idempotent and two runs with the same id are
//! byte-identical by construction.
//!
//! Layout:
//!
//! ```text
//! <root>/                      # default target/runs, $LIP_RUN_STORE override
//!   <run_id>/
//!     manifest.json            # schema lip_obs::schema::MANIFEST
//!     artifacts/
//!       BENCH_check.json
//!       BLAME_fig1.json
//!       …
//! ```

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use lip_obs::json::{parse, Json};

/// 64-bit FNV-1a, the workspace's standard cheap content digest.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One captured artifact in a run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRef {
    /// File name under `artifacts/` (the artifact's repo-root name).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// FNV-1a digest of the contents, zero-padded hex.
    pub hash: String,
}

/// The provenance record written next to every run's artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest layout version ([`lip_obs::schema::MANIFEST`]).
    pub schema_version: i64,
    /// Content-derived run id (digest of the artifact set).
    pub run_id: String,
    /// Free-form label (`sweep`, `exp_delta baseline`, …).
    pub label: String,
    /// Capture time, nanoseconds since the Unix epoch.
    pub created_ns: i64,
    /// `git rev-parse HEAD` at capture time, or `unknown`.
    pub git_sha: String,
    /// Host fingerprint (`os-arch-hostname`).
    pub host: String,
    /// Every artifact schema version current at capture time.
    pub schemas: Vec<(String, i64)>,
    /// The captured artifacts, sorted by name.
    pub artifacts: Vec<ArtifactRef>,
}

impl Manifest {
    fn to_json(&self) -> Json {
        let schemas = self
            .schemas
            .iter()
            .map(|(k, v)| (k.as_str(), Json::Int(*v)));
        let artifacts = self.artifacts.iter().map(|a| {
            Json::obj([
                ("name", a.name.as_str().into()),
                ("bytes", a.bytes.into()),
                ("hash", a.hash.as_str().into()),
            ])
        });
        Json::obj([
            ("schema_version", self.schema_version.into()),
            ("kind", "run_manifest".into()),
            ("run_id", self.run_id.as_str().into()),
            ("label", self.label.as_str().into()),
            ("created_ns", self.created_ns.into()),
            ("git_sha", self.git_sha.as_str().into()),
            ("host", self.host.as_str().into()),
            ("schemas", Json::obj(schemas)),
            ("artifacts", artifacts.collect()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("manifest missing string field {k}"))
        };
        let int_field = |k: &str| -> Result<i64, String> {
            v.get(k)
                .and_then(Json::as_int)
                .ok_or_else(|| format!("manifest missing integer field {k}"))
        };
        let schemas = v
            .get("schemas")
            .and_then(Json::as_obj)
            .ok_or("manifest missing schemas")?
            .iter()
            .map(|(k, ver)| {
                ver.as_int()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("schema {k} is not an integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let artifacts = v
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or("manifest missing artifacts")?
            .iter()
            .map(|a| {
                Ok(ArtifactRef {
                    name: a
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("artifact missing name")?
                        .to_owned(),
                    bytes: a
                        .get("bytes")
                        .and_then(Json::as_int)
                        .ok_or("artifact missing bytes")? as u64,
                    hash: a
                        .get("hash")
                        .and_then(Json::as_str)
                        .ok_or("artifact missing hash")?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            schema_version: int_field("schema_version")?,
            run_id: str_field("run_id")?,
            label: str_field("label")?,
            created_ns: int_field("created_ns")?,
            git_sha: str_field("git_sha")?,
            host: str_field("host")?,
            schemas,
            artifacts,
        })
    }
}

/// A run loaded back from the store.
#[derive(Debug, Clone)]
pub struct Run {
    /// The provenance manifest.
    pub manifest: Manifest,
    dir: PathBuf,
}

impl Run {
    /// Raw contents of a captured artifact.
    ///
    /// # Errors
    ///
    /// I/O errors reading the artifact file.
    pub fn artifact(&self, name: &str) -> io::Result<String> {
        fs::read_to_string(self.dir.join("artifacts").join(name))
    }

    /// A captured artifact parsed as JSON.
    ///
    /// # Errors
    ///
    /// I/O errors, or a parse error message for malformed JSON.
    pub fn artifact_json(&self, name: &str) -> Result<Json, String> {
        let text = self.artifact(name).map_err(|e| format!("{name}: {e}"))?;
        parse(&text).map_err(|e| format!("{name}: {e}"))
    }

    /// Names of every captured artifact, sorted.
    #[must_use]
    pub fn artifact_names(&self) -> Vec<String> {
        self.manifest
            .artifacts
            .iter()
            .map(|a| a.name.clone())
            .collect()
    }
}

/// A directory of runs.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Open (without creating) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        RunStore { root: root.into() }
    }

    /// The conventional store root: `$LIP_RUN_STORE`, else
    /// `target/runs`.
    #[must_use]
    pub fn default_root() -> PathBuf {
        std::env::var_os("LIP_RUN_STORE")
            .map_or_else(|| PathBuf::from("target/runs"), PathBuf::from)
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Manifests of every run, oldest first (by capture time, then id).
    ///
    /// # Errors
    ///
    /// I/O errors walking the store; a run directory with a malformed
    /// manifest is an error, not silently skipped. Staging directories
    /// (a commit in flight, or one a crash left behind) are not runs
    /// and are skipped unread.
    pub fn list(&self) -> io::Result<Vec<Manifest>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() || is_staging(&entry.file_name().to_string_lossy()) {
                continue;
            }
            let manifest_path = entry.path().join("manifest.json");
            if !manifest_path.exists() {
                continue;
            }
            let text = fs::read_to_string(&manifest_path)?;
            let doc = parse(&text).map_err(io::Error::other)?;
            out.push(Manifest::from_json(&doc).map_err(io::Error::other)?);
        }
        out.sort_by(|a, b| {
            a.created_ns
                .cmp(&b.created_ns)
                .then_with(|| a.run_id.cmp(&b.run_id))
        });
        Ok(out)
    }

    /// Load one run by id (unique prefixes are accepted).
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown id, `InvalidInput` for an ambiguous
    /// prefix, plus underlying I/O errors.
    pub fn load(&self, id: &str) -> io::Result<Run> {
        let dir = self.root.join(id);
        let dir = if !is_staging(id) && dir.join("manifest.json").exists() {
            dir
        } else {
            // Prefix match.
            let mut matches = Vec::new();
            for m in self.list()? {
                if m.run_id.starts_with(id) {
                    matches.push(m.run_id);
                }
            }
            match matches.len() {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no run {id} in {}", self.root.display()),
                    ))
                }
                1 => self.root.join(&matches[0]),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("run prefix {id} is ambiguous: {}", matches.join(", ")),
                    ))
                }
            }
        };
        let text = fs::read_to_string(dir.join("manifest.json"))?;
        let doc = parse(&text).map_err(io::Error::other)?;
        let manifest = Manifest::from_json(&doc).map_err(io::Error::other)?;
        Ok(Run { manifest, dir })
    }

    /// The most recently captured run, if any.
    ///
    /// # Errors
    ///
    /// I/O errors walking the store.
    pub fn latest(&self) -> io::Result<Option<Manifest>> {
        Ok(self.list()?.pop())
    }
}

/// Accumulates artifacts for one run, then commits them atomically.
#[derive(Debug, Clone, Default)]
pub struct RunBuilder {
    label: String,
    artifacts: Vec<(String, String)>,
}

impl RunBuilder {
    /// A builder for a run labelled `label`.
    #[must_use]
    pub fn new(label: &str) -> Self {
        RunBuilder {
            label: label.to_owned(),
            artifacts: Vec::new(),
        }
    }

    /// Add an artifact by name and contents. Re-adding a name replaces
    /// the previous contents.
    pub fn add_artifact(&mut self, name: &str, contents: &str) {
        if let Some(slot) = self.artifacts.iter_mut().find(|(n, _)| n == name) {
            slot.1 = contents.to_owned();
        } else {
            self.artifacts.push((name.to_owned(), contents.to_owned()));
        }
    }

    /// Add a file from disk, named by its file name.
    ///
    /// # Errors
    ///
    /// I/O errors reading `path`, or `InvalidInput` for a path with no
    /// file name.
    pub fn add_file(&mut self, path: &Path) -> io::Result<()> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
            .to_owned();
        let contents = fs::read_to_string(path)?;
        self.add_artifact(&name, &contents);
        Ok(())
    }

    /// The content-derived run id this artifact set will commit under.
    #[must_use]
    pub fn run_id(&self) -> String {
        let mut sorted: Vec<_> = self
            .artifacts
            .iter()
            .map(|(n, c)| (n.as_str(), fnv1a(c.as_bytes())))
            .collect();
        sorted.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, content_hash) in sorted {
            h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ fnv1a(name.as_bytes());
            h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ content_hash;
        }
        format!("{h:016x}")
    }

    /// Write the run into `store`. Content-addressed: committing an
    /// identical artifact set returns the existing run id without
    /// touching its manifest (first capture's provenance wins).
    ///
    /// # Errors
    ///
    /// I/O errors creating directories or writing files, or
    /// `InvalidInput` when the builder holds no artifacts.
    pub fn commit(&self, store: &RunStore) -> io::Result<String> {
        if self.artifacts.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "refusing to commit a run with no artifacts",
            ));
        }
        let run_id = self.run_id();
        let dir = store.root.join(&run_id);
        if dir.join("manifest.json").exists() {
            return Ok(run_id);
        }
        // Stage under a name no other commit uses, then rename: `list`
        // and `load` skip staging names, so a crashed capture never
        // leaves a half-written run they would trip over, and
        // concurrent commits of one artifact set never write into (or
        // delete) each other's staging directory.
        let staging = store.root.join(format!(
            "{STAGING_PREFIX}{run_id}-{}-{}",
            std::process::id(),
            STAGING_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let committed = self
            .stage(&staging, &run_id)
            .and_then(|()| fs::rename(&staging, &dir));
        match committed {
            Ok(()) => Ok(run_id),
            // A concurrent capture of the same content won the rename;
            // both sides wrote byte-identical runs.
            Err(_) if dir.join("manifest.json").exists() => {
                let _ = fs::remove_dir_all(&staging);
                Ok(run_id)
            }
            Err(e) => {
                let _ = fs::remove_dir_all(&staging);
                Err(e)
            }
        }
    }

    /// Write the artifacts and the manifest of run `run_id` into the
    /// fresh directory `staging`.
    fn stage(&self, staging: &Path, run_id: &str) -> io::Result<()> {
        fs::create_dir_all(staging.join("artifacts"))?;
        let mut refs: Vec<ArtifactRef> = self
            .artifacts
            .iter()
            .map(|(name, contents)| ArtifactRef {
                name: name.clone(),
                bytes: contents.len() as u64,
                hash: format!("{:016x}", fnv1a(contents.as_bytes())),
            })
            .collect();
        refs.sort_by(|a, b| a.name.cmp(&b.name));
        for (name, contents) in &self.artifacts {
            fs::write(staging.join("artifacts").join(name), contents)?;
        }
        let manifest = Manifest {
            schema_version: i64::from(lip_obs::schema::MANIFEST),
            run_id: run_id.to_owned(),
            label: self.label.clone(),
            created_ns: now_ns(),
            git_sha: git_sha(),
            host: host_fingerprint(),
            schemas: lip_obs::schema::ALL
                .iter()
                .map(|&(k, v)| (k.to_owned(), i64::from(v)))
                .collect(),
            artifacts: refs,
        };
        fs::write(
            staging.join("manifest.json"),
            manifest.to_json().to_compact() + "\n",
        )
    }
}

/// Sequence number that, with the process id, names each commit's
/// staging directory uniquely.
static STAGING_SEQ: AtomicU64 = AtomicU64::new(0);

/// Name prefix of a commit's staging directory; no run id starts so.
const STAGING_PREFIX: &str = ".tmp-";

/// Whether a store entry named `name` is a staging directory.
fn is_staging(name: &str) -> bool {
    name.starts_with(STAGING_PREFIX)
}

fn now_ns() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| i64::try_from(d.as_nanos()).unwrap_or(i64::MAX))
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_fingerprint() -> String {
    let host = std::env::var("HOSTNAME")
        .ok()
        .or_else(|| {
            fs::read_to_string("/etc/hostname")
                .ok()
                .map(|s| s.trim().to_owned())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown-host".to_owned());
    format!(
        "{}-{}-{}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        host
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lip-delta-store-{tag}-{}-{}",
            std::process::id(),
            now_ns()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn commit_is_content_addressed_and_idempotent() {
        let root = tmp_root("idem");
        let store = RunStore::open(&root);
        let mut b = RunBuilder::new("test");
        b.add_artifact("BENCH_x.json", "{\"schema_version\": 2}\n");
        let id1 = b.commit(&store).unwrap();
        let id2 = b.commit(&store).unwrap();
        assert_eq!(id1, id2, "same content commits under the same id");
        assert_eq!(store.list().unwrap().len(), 1);

        let mut c = RunBuilder::new("test");
        c.add_artifact("BENCH_x.json", "{\"schema_version\": 3}\n");
        let id3 = c.commit(&store).unwrap();
        assert_ne!(id1, id3, "different content gets a different id");
        assert_eq!(store.list().unwrap().len(), 2);

        let run = store.load(&id1).unwrap();
        assert_eq!(run.manifest.label, "test");
        assert_eq!(
            run.artifact("BENCH_x.json").unwrap(),
            "{\"schema_version\": 2}\n"
        );
        assert_eq!(
            run.artifact_json("BENCH_x.json")
                .unwrap()
                .get("schema_version")
                .unwrap()
                .as_int(),
            Some(2)
        );
        assert!(run
            .manifest
            .schemas
            .iter()
            .any(|(k, v)| k == "manifest" && *v == i64::from(lip_obs::schema::MANIFEST)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifests_with_retired_fields_still_load() {
        // Manifests once recorded the lane-word shape and `LIP_JOBS`,
        // both constant by then; a stored run still carrying them loads.
        let root = tmp_root("retired");
        let store = RunStore::open(&root);
        let mut b = RunBuilder::new("old");
        b.add_artifact("a.json", "1");
        let id = b.commit(&store).unwrap();
        let path = root.join(&id).join("manifest.json");
        let text = fs::read_to_string(&path).unwrap();
        assert!(!text.contains("lane_words") && !text.contains("lip_jobs"));
        let old = text.replacen(
            "\"host\":",
            "\"lane_words\":\"default\",\"lip_jobs\":\"default\",\"host\":",
            1,
        );
        assert_ne!(old, text, "the retired fields went in");
        fs::write(&path, old).unwrap();
        let run = store.load(&id).unwrap();
        assert_eq!(
            (run.manifest.run_id.as_str(), run.manifest.label.as_str()),
            (id.as_str(), "old")
        );
        assert_eq!(store.list().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn load_accepts_unique_prefixes() {
        let root = tmp_root("prefix");
        let store = RunStore::open(&root);
        let mut b = RunBuilder::new("p");
        b.add_artifact("a.json", "1");
        let id = b.commit(&store).unwrap();
        let run = store.load(&id[..8]).unwrap();
        assert_eq!(run.manifest.run_id, id);
        assert!(store.load("ffffffffffffffff").is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn hostile_manifests_are_errors_not_panics() {
        let root = tmp_root("hostile");
        let store = RunStore::open(&root);
        let mut b = RunBuilder::new("h");
        b.add_artifact("a.json", "1");
        let id = b.commit(&store).unwrap();
        let path = root.join(&id).join("manifest.json");
        let good = fs::read_to_string(&path).unwrap();
        // Emptied, mutated and truncated manifests: each is an error
        // from both `list` and `load`, never a panic.
        let mut hostile = vec![
            String::new(),
            "null".to_owned(),
            "[]".to_owned(),
            "{\"schemas\": {}, \"artifacts\": [{}]}".to_owned(),
            good.replace("\"run_id\":", "\"run_idx\":"),
            good.replace("\"created_ns\":", "\"created_ns\":\"x\",\"y\":"),
            good.replace("\"name\":", "\"name\":7,\"n\":"),
            good.replace('{', "["),
            "[".repeat(100_000),
        ];
        hostile.extend((1..good.len() - 1).step_by(7).map(|n| good[..n].to_owned()));
        for text in &hostile {
            fs::write(&path, text).unwrap();
            assert!(store.list().is_err(), "listed manifest {text:.80}");
            assert!(store.load(&id).is_err(), "loaded manifest {text:.80}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_commits_all_land() {
        // 8 threads commit one artifact set and 8 commit distinct sets
        // into one store, released together by a barrier: every call
        // returns its id, every run loads with its own contents, and no
        // staging directory is left. Several rounds, each into a fresh
        // store, so the commits of one set overlap in some round.
        let builder = |k: usize| {
            let mut b = RunBuilder::new("c");
            b.add_artifact("BENCH_x.json", &format!("{{\"k\": {k}}}\n"));
            for f in 0..8 {
                b.add_artifact(&format!("BLAME_{f}.json"), &"y".repeat(8192));
            }
            b
        };
        for round in 0..8 {
            let root = tmp_root(&format!("concurrent{round}"));
            let store = RunStore::open(&root);
            let start = std::sync::Barrier::new(16);
            let results: Vec<(usize, io::Result<String>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..16)
                    .map(|t| {
                        let (store, start) = (&store, &start);
                        let k = if t < 8 { 0 } else { t };
                        s.spawn(move || {
                            let b = builder(k);
                            start.wait();
                            (k, b.commit(store))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (k, id) in results {
                let id = id.unwrap_or_else(|e| panic!("round {round}: commit of set {k}: {e}"));
                assert_eq!(id, builder(k).run_id());
                let run = store.load(&id).unwrap();
                assert_eq!(
                    run.artifact("BENCH_x.json").unwrap(),
                    format!("{{\"k\": {k}}}\n")
                );
                assert_eq!(run.artifact("BLAME_7.json").unwrap().len(), 8192);
            }
            assert_eq!(store.list().unwrap().len(), 9);
            let staged = fs::read_dir(&root)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
                .count();
            assert_eq!(staged, 0, "round {round}: a staging directory was left");
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn list_and_load_skip_staging_directories() {
        // What a crash leaves: one staging directory cut off while its
        // manifest was written, and one cut off just before the rename.
        let root = tmp_root("staging");
        let store = RunStore::open(&root);
        let mut b = RunBuilder::new("real");
        b.add_artifact("BENCH_x.json", "{\"k\": 1}\n");
        let id = b.commit(&store).unwrap();
        let manifest = fs::read_to_string(root.join(&id).join("manifest.json")).unwrap();
        for (name, text) in [
            (format!(".tmp-{id}-1-0"), &manifest[..manifest.len() / 2]),
            (format!(".tmp-{id}-1-1"), &manifest[..]),
        ] {
            fs::create_dir_all(root.join(&name).join("artifacts")).unwrap();
            fs::write(root.join(&name).join("manifest.json"), text).unwrap();
        }
        let listed: Vec<String> = store
            .list()
            .unwrap()
            .into_iter()
            .map(|m| m.run_id)
            .collect();
        assert_eq!(listed, vec![id.clone()]);
        assert_eq!(store.load(&id[..8]).unwrap().manifest.run_id, id);
        assert_eq!(store.latest().unwrap().unwrap().run_id, id);
        let err = store.load(&format!(".tmp-{id}-1-1")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_builder_refuses_commit() {
        let root = tmp_root("empty");
        let store = RunStore::open(&root);
        assert!(RunBuilder::new("x").commit(&store).is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
