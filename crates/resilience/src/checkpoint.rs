//! Sharded, atomic checkpoint/restore for worker groups, and the one
//! owner of both checkpoint formats.
//!
//! **Sharded**: every save — on disk or in memory — dispatches the
//! `save_shard` method to every rank (ALL_TO_ALL). Each rank replies
//! with one padded [`encode_shard`] row carrying *its own slice* of the
//! flat parameter vector plus the matching Adam moments — the
//! (p,t,d)-aware partition for replicated workers (the model-parallel
//! group tiles the vector; only one data-parallel replica owns shards),
//! or the ZeRO shard each rank already holds. One validation pass
//! assembles the owner rows for both the shard files and
//! [`snapshot_group`]. Checkpoint volume is therefore ~one copy of the
//! model, not `world` copies.
//!
//! **Atomic**: every shard file is written `tmp+rename`; a manifest
//! records each shard's FNV-1a content hash; a step directory only
//! counts once its `COMMIT` marker (also `tmp+rename`) lands. A crash
//! mid-save leaves at worst an uncommitted directory that
//! [`CheckpointStore::latest_step`] ignores.
//!
//! **Restore** broadcasts one `load_checkpoint` payload
//! ([`AssembledState::to_payload`]) that every rank decodes with
//! [`decode_load`], which checks every length and the checksum before
//! the worker changes any state.

use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use hf_core::{CoreError, DataProto, Protocol, Result, WorkerGroup};

/// The worker method every checkpoint dispatches (ALL_TO_ALL); workers
/// answer it with one [`encode_shard`] row.
pub const SAVE_SHARD_METHOD: &str = "save_shard";

/// Width of the `shard_meta` column.
pub const SHARD_META_WIDTH: usize = 7;

const SHARD_MAGIC: &[u8; 4] = b"HFS1";

/// FNV-1a over a byte stream: the shard files' content hash and, over
/// parameter bit patterns, the load payload's checksum.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// FNV-1a over the bit pattern of a parameter buffer — the §9
/// silent-data-corruption guard [`decode_load`] verifies.
fn param_checksum(params: &[f32]) -> u64 {
    fnv1a(params.iter().flat_map(|p| p.to_le_bytes()))
}

fn io_err(context: &str, e: io::Error) -> CoreError {
    CoreError::Data(format!("checkpoint {context}: {e}"))
}

/// Writes `bytes` to `path` atomically (`path.tmp` then rename), so a
/// crash never leaves a half-written file under the final name.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
        f.write_all(bytes).map_err(|e| io_err("write tmp", e))?;
        f.sync_all().map_err(|e| io_err("sync tmp", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
}

/// One rank's `save_shard` header, carried in the `shard_meta` column
/// as `[rank, start, len, owner, total, gen_round, opt_t]` (all values
/// < 2^24, exact in f32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// The replying rank.
    pub rank: usize,
    /// First element of the shard within the flat vector.
    pub start: usize,
    /// Elements in the shard (the row is zero-padded beyond them).
    pub len: usize,
    /// Whether the checkpoint keeps this row (data-parallel replicas
    /// other than the owner hold the same bytes).
    pub owner: bool,
    /// Length of the full flat vector.
    pub total: usize,
    /// Generation RNG round (actor only; 0 otherwise).
    pub gen_round: u64,
    /// Adam step count.
    pub opt_t: u64,
}

/// Encodes one rank's `save_shard` reply: the first `meta.len` elements
/// of `shard` (the rank's parameters and both Adam moments, each from
/// the shard's start), zero-padded to `padded` — the same on every rank,
/// so the ALL_TO_ALL concat aligns.
pub fn encode_shard(meta: ShardMeta, padded: usize, shard: [&[f32]; 3]) -> DataProto {
    let ShardMeta { rank, start, len, owner, total, gen_round, opt_t } = meta;
    let mut out = DataProto::with_rows(1);
    for (name, src) in ["shard_params", "shard_m", "shard_v"].into_iter().zip(shard) {
        let mut row = src[..len].to_vec();
        row.resize(padded, 0.0);
        out.insert_f32(name, row, padded);
    }
    let head = [rank, start, len, usize::from(owner), total].map(|x| x as f32);
    let row = [&head[..], &[gen_round as f32, opt_t as f32]].concat();
    out.insert_f32("shard_meta", row, SHARD_META_WIDTH);
    out
}

/// Collects `group`'s `save_shard` rows and assembles the owner shards,
/// after the one validation both the on-disk and the in-memory save
/// run: column widths, owner agreement on `(total, gen_round, opt_t)`,
/// `len <= width`, and ranges that tile `[0, total)` exactly.
fn collect_shards(group: &WorkerGroup) -> Result<(AssembledState, Vec<ShardMeta>)> {
    let rows = group.call_sync(SAVE_SHARD_METHOD, &DataProto::empty(), Protocol::AllToAll)?;
    let (meta, mw) = rows.f32("shard_meta")?;
    if mw != SHARD_META_WIDTH {
        return Err(CoreError::Data(format!("shard_meta width {mw}, expected {SHARD_META_WIDTH}")));
    }
    let cols = [rows.f32("shard_params")?, rows.f32("shard_m")?, rows.f32("shard_v")?];
    let pw = cols[0].1;
    if cols.iter().any(|&(_, w)| w != pw) {
        return Err(CoreError::Data("shard moment widths must match shard_params".into()));
    }
    let mut owners: Vec<(usize, ShardMeta)> = Vec::new();
    for (r, md) in meta.chunks_exact(mw).enumerate() {
        let [rank, start, len, owner, total, gen_round, opt_t] =
            <[f32; SHARD_META_WIDTH]>::try_from(md).expect("chunk of the meta width");
        let (rank, start, len, total) =
            (rank as usize, start as usize, len as usize, total as usize);
        let (gen_round, opt_t) = (gen_round as u64, opt_t as u64);
        let m = ShardMeta { rank, start, len, owner: owner != 0.0, total, gen_round, opt_t };
        if !m.owner {
            continue;
        }
        // Every owner must agree on the vector size and RNG/optimizer
        // rounds; a disagreement means the group's ranks are not in
        // lockstep (e.g. a half-torn-down group mid-remap) and the
        // shards would assemble into a silently inconsistent state.
        let header = |m: &ShardMeta| (m.total, m.gen_round, m.opt_t);
        if let Some((_, first)) = owners.first().filter(|(_, f)| header(f) != header(&m)) {
            return Err(CoreError::Data(format!(
                "shard of rank {rank} disagrees with the group: \
                 (total, gen_round, opt_t) = {:?} vs {:?}",
                header(&m),
                header(first)
            )));
        }
        if len > pw {
            return Err(CoreError::Data(format!(
                "shard of rank {rank} claims len {len} > padded width {pw}"
            )));
        }
        owners.push((r, m));
    }
    let Some(&(_, first)) = owners.first() else {
        return Err(CoreError::Data(
            "no rank owns any shard; refusing to write an empty checkpoint".into(),
        ));
    };
    check_coverage(owners.iter().map(|(_, m)| (m.start, m.len)), first.total)?;
    let mut full = [(); 3].map(|_| vec![0.0f32; first.total]);
    for (r, m) in &owners {
        for (dst, (src, _)) in full.iter_mut().zip(&cols) {
            dst[m.start..m.start + m.len].copy_from_slice(&src[r * pw..r * pw + m.len]);
        }
    }
    let [params, opt_m, opt_v] = full;
    let st =
        AssembledState { params, opt_m, opt_v, opt_t: first.opt_t, gen_round: first.gen_round };
    Ok((st, owners.into_iter().map(|(_, m)| m).collect()))
}

/// Snapshots `group`'s full training state in memory through the same
/// `save_shard` collect and checks as [`CheckpointStore::save_group`]:
/// the result equals what `save_group` + `load_group` return.
pub fn snapshot_group(group: &WorkerGroup) -> Result<AssembledState> {
    collect_shards(group).map(|(st, _)| st)
}

/// Everything needed to rebuild a worker's training state: the full
/// flat parameter vector, full Adam moments, the Adam step count, and
/// the generation RNG round.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledState {
    /// Full flat parameter vector.
    pub params: Vec<f32>,
    /// Full first Adam moment.
    pub opt_m: Vec<f32>,
    /// Full second Adam moment.
    pub opt_v: Vec<f32>,
    /// Adam step count.
    pub opt_t: u64,
    /// Generation RNG round (actor only; 0 otherwise).
    pub gen_round: u64,
}

impl AssembledState {
    /// Encodes the state as the workers' `load_checkpoint` payload: one
    /// row with columns `params`, `opt_m`, `opt_v` and meta `checksum`,
    /// `gen_round`, `opt_t`.
    pub fn to_payload(&self) -> DataProto {
        let mut d = DataProto::with_rows(1);
        for (name, col) in
            [("params", &self.params), ("opt_m", &self.opt_m), ("opt_v", &self.opt_v)]
        {
            d.insert_f32(name, col.clone(), col.len());
        }
        d.meta.insert("checksum".into(), format!("{:016x}", param_checksum(&self.params)));
        d.meta.insert("gen_round".into(), self.gen_round.to_string());
        d.meta.insert("opt_t".into(), self.opt_t.to_string());
        d
    }
}

/// A verified `load_checkpoint` payload, borrowing the request.
#[derive(Debug, Clone, Copy)]
pub struct LoadPayload<'a> {
    /// The full flat parameter vector.
    pub params: &'a [f32],
    /// Adam `(m, v, t)`, when the payload carries both moments.
    pub opt: Option<(&'a [f32], &'a [f32], u64)>,
    /// The generation RNG round, when the payload carries one.
    pub gen_round: Option<u64>,
}

/// Decodes a `load_checkpoint` request for a model of `n_params`
/// parameters, checking every length and the checksum (when present)
/// first — a worker that installs the result only on `Ok` never changes
/// state on a malformed payload. A `params`-only payload leaves the
/// optimizer alone.
pub fn decode_load(data: &DataProto, n_params: usize) -> Result<LoadPayload<'_>> {
    let (params, _) = data.f32("params")?;
    let opt = if data.has("opt_m") && data.has("opt_v") {
        let t = data.meta.get("opt_t").and_then(|s| s.parse().ok()).unwrap_or(0);
        Some((data.f32("opt_m")?.0, data.f32("opt_v")?.0, t))
    } else {
        None
    };
    let lens = [Some(params.len()), opt.map(|o| o.0.len()), opt.map(|o| o.1.len())];
    if lens.iter().flatten().any(|&n| n != n_params) {
        return Err(CoreError::Data(format!(
            "checkpoint size mismatch: (params, opt_m, opt_v) lengths {lens:?}, model has {n_params}"
        )));
    }
    if let Some(expect) = data.meta.get("checksum") {
        let got = format!("{:016x}", param_checksum(params));
        if &got != expect {
            return Err(CoreError::Data(format!(
                "checkpoint checksum mismatch: stored {expect}, computed {got} \
                 (silent data corruption)"
            )));
        }
    }
    let gen_round = data.meta.get("gen_round").and_then(|s| s.parse().ok());
    Ok(LoadPayload { params, opt, gen_round })
}

/// What one `save_group` wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSaveReport {
    /// Checkpoint step.
    pub step: u64,
    /// Owner shards written.
    pub shards: usize,
    /// Bytes on disk (shard files only).
    pub bytes: u64,
    /// Total parameters covered.
    pub total_params: usize,
}

struct ShardEntry {
    file: String,
    start: usize,
    len: usize,
    hash: u64,
}

/// A directory of committed, sharded, content-hashed checkpoints.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", e))?;
        Ok(CheckpointStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn step_dir(&self, step: u64) -> PathBuf {
        self.dir.join(format!("step-{step:06}"))
    }

    /// Collects every rank's shard of `group` via [`SAVE_SHARD_METHOD`],
    /// validates them exactly as [`snapshot_group`] does, and writes the
    /// owner shards plus a hashed manifest under
    /// `step-NNNNNN/`. Not visible to [`CheckpointStore::latest_step`]
    /// until [`CheckpointStore::commit`] lands the step's marker.
    pub fn save_group(&self, group: &WorkerGroup, step: u64) -> Result<GroupSaveReport> {
        let (st, owners) = collect_shards(group)?;
        let (total, gen_round, opt_t) = (st.params.len(), st.gen_round, st.opt_t);
        let step_dir = self.step_dir(step);
        fs::create_dir_all(&step_dir).map_err(|e| io_err("create step dir", e))?;

        let mut entries: Vec<ShardEntry> = Vec::new();
        let mut bytes = 0u64;
        for m in &owners {
            let r = m.start..m.start + m.len;
            let mut payload = Vec::with_capacity(SHARD_MAGIC.len() + 16 + 12 * m.len);
            payload.extend_from_slice(SHARD_MAGIC);
            payload.extend_from_slice(&(m.start as u64).to_le_bytes());
            payload.extend_from_slice(&(m.len as u64).to_le_bytes());
            for col in [&st.params, &st.opt_m, &st.opt_v] {
                payload.extend(col[r.clone()].iter().flat_map(|x| x.to_le_bytes()));
            }
            let hash = fnv1a(payload.iter().copied());
            let file = format!("{}-rank-{:03}.bin", group.name(), m.rank);
            write_atomic(&step_dir.join(&file), &payload)?;
            bytes += payload.len() as u64;
            entries.push(ShardEntry { file, start: m.start, len: m.len, hash });
        }

        let mut manifest = format!(
            "step={step} total={total} gen_round={gen_round} opt_t={opt_t} shards={}\n",
            entries.len()
        );
        for e in &entries {
            manifest.push_str(&format!(
                "shard file={} start={} len={} hash={:016x}\n",
                e.file, e.start, e.len, e.hash
            ));
        }
        write_atomic(&step_dir.join(format!("{}.manifest", group.name())), manifest.as_bytes())?;
        // A re-save of the same step from a *smaller* layout (elastic
        // re-mapping's rebuild-from-seeds path) writes fewer owner
        // shards than a predecessor; drop this group's now-unreferenced
        // files so the directory never resurrects or leaks stale
        // bigger-world shards. The manifest rewrite above is atomic, so
        // referenced files are never removed.
        if let Ok(dirents) = fs::read_dir(&step_dir) {
            let prefix = format!("{}-rank-", group.name());
            for de in dirents.flatten() {
                let name = de.file_name().to_string_lossy().into_owned();
                if name.starts_with(&prefix)
                    && name.ends_with(".bin")
                    && !entries.iter().any(|e| e.file == name)
                {
                    let _ = fs::remove_file(de.path());
                }
            }
        }
        Ok(GroupSaveReport { step, shards: entries.len(), bytes, total_params: total })
    }

    /// Commits `step`: writes the `COMMIT` marker naming the groups the
    /// step covers. Only committed steps are visible to
    /// [`CheckpointStore::latest_step`].
    pub fn commit(&self, step: u64, groups: &[&str]) -> Result<()> {
        self.commit_at(step, groups, 0.0)
    }

    /// Like [`CheckpointStore::commit`], but stamps the marker with the
    /// virtual-clock instant the commit landed (stored as exact f64
    /// bits). Lost-work accounting reads this timestamp back via
    /// [`CheckpointStore::commit_time`] instead of guessing from clock
    /// samples taken around the save, so a fault *during* the next
    /// checkpoint's tmp+rename window is attributed to the checkpoint,
    /// not to discarded training work.
    pub fn commit_at(&self, step: u64, groups: &[&str], now_s: f64) -> Result<()> {
        let content = format!(
            "step={step}\ngroups={}\ntime_bits={:016x}\n",
            groups.join(","),
            now_s.to_bits()
        );
        write_atomic(&self.step_dir(step).join("COMMIT"), content.as_bytes())
    }

    /// The virtual-clock instant `step`'s COMMIT marker landed, if the
    /// step is committed (0.0 for markers written by
    /// [`CheckpointStore::commit`]).
    pub fn commit_time(&self, step: u64) -> Option<f64> {
        let content = fs::read_to_string(self.step_dir(step).join("COMMIT")).ok()?;
        let bits = content
            .lines()
            .find_map(|l| l.strip_prefix("time_bits="))
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())?;
        Some(f64::from_bits(bits))
    }

    /// The newest committed step, if any.
    pub fn latest_step(&self) -> Option<u64> {
        let entries = fs::read_dir(&self.dir).ok()?;
        let mut best = None;
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(step) = name.to_str().and_then(|n| n.strip_prefix("step-")) else {
                continue;
            };
            let Ok(step) = step.parse::<u64>() else { continue };
            if e.path().join("COMMIT").is_file() {
                best = best.max(Some(step));
            }
        }
        best
    }

    /// Reads, hash-verifies, and reassembles `group_name`'s state at
    /// `step`.
    pub fn load_group(&self, step: u64, group_name: &str) -> Result<AssembledState> {
        let step_dir = self.step_dir(step);
        let manifest = fs::read_to_string(step_dir.join(format!("{group_name}.manifest")))
            .map_err(|e| io_err("read manifest", e))?;
        let mut lines = manifest.lines();
        let header =
            lines.next().ok_or_else(|| CoreError::Data("empty checkpoint manifest".into()))?;
        let field = |line: &str, key: &str| -> Result<u64> {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{key}=")).map(str::to_string))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CoreError::Data(format!("manifest missing field {key}")))
        };
        let total = field(header, "total")? as usize;
        let gen_round = field(header, "gen_round")?;
        let opt_t = field(header, "opt_t")?;
        let mut entries = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let kv = |key: &str| -> Result<String> {
                line.split_whitespace()
                    .find_map(|p| p.strip_prefix(&format!("{key}=")).map(str::to_string))
                    .ok_or_else(|| CoreError::Data(format!("manifest shard missing {key}")))
            };
            entries.push(ShardEntry {
                file: kv("file")?,
                start: kv("start")?
                    .parse()
                    .map_err(|_| CoreError::Data("bad shard start".into()))?,
                len: kv("len")?.parse().map_err(|_| CoreError::Data("bad shard len".into()))?,
                hash: u64::from_str_radix(&kv("hash")?, 16)
                    .map_err(|_| CoreError::Data("bad shard hash".into()))?,
            });
        }
        check_coverage(entries.iter().map(|e| (e.start, e.len)), total)?;

        let mut params = vec![0.0f32; total];
        let mut opt_m = vec![0.0f32; total];
        let mut opt_v = vec![0.0f32; total];
        for e in &entries {
            let mut payload = Vec::new();
            fs::File::open(step_dir.join(&e.file))
                .and_then(|mut f| f.read_to_end(&mut payload))
                .map_err(|er| io_err("read shard", er))?;
            if fnv1a(payload.iter().copied()) != e.hash {
                return Err(CoreError::Data(format!(
                    "shard {} content hash mismatch (corrupt checkpoint)",
                    e.file
                )));
            }
            let expect = SHARD_MAGIC.len() + 16 + 12 * e.len;
            if payload.len() != expect || &payload[..4] != SHARD_MAGIC {
                return Err(CoreError::Data(format!("shard {} malformed", e.file)));
            }
            let start = u64::from_le_bytes(payload[4..12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(payload[12..20].try_into().unwrap()) as usize;
            if start != e.start || len != e.len {
                return Err(CoreError::Data(format!(
                    "shard {} header disagrees with manifest",
                    e.file
                )));
            }
            let mut off = 20;
            for dst in [&mut params, &mut opt_m, &mut opt_v] {
                for x in dst[start..start + len].iter_mut() {
                    *x = f32::from_le_bytes(payload[off..off + 4].try_into().unwrap());
                    off += 4;
                }
            }
        }
        Ok(AssembledState { params, opt_m, opt_v, opt_t, gen_round })
    }

    /// Restores `group` from the committed shards at `step`: reassembles
    /// the full state and broadcasts it as the workers' `load_checkpoint`
    /// payload ([`AssembledState::to_payload`], ONE_TO_ALL), checksum and
    /// RNG round included; every rank verifies it with [`decode_load`].
    pub fn restore_group(&self, group: &WorkerGroup, step: u64) -> Result<AssembledState> {
        let st = self.load_group(step, group.name())?;
        group.call_sync("load_checkpoint", &st.to_payload(), Protocol::OneToAll)?;
        Ok(st)
    }
}

/// Verifies the shard ranges tile `[0, total)` exactly — no gaps, no
/// overlaps. Zero-length shards (padding tails) are allowed.
fn check_coverage(ranges: impl IntoIterator<Item = (usize, usize)>, total: usize) -> Result<()> {
    let mut ranges: Vec<(usize, usize)> = ranges.into_iter().filter(|&(_, len)| len > 0).collect();
    ranges.sort_unstable();
    let mut cursor = 0usize;
    for (start, len) in ranges {
        if start != cursor {
            return Err(CoreError::Data(format!(
                "checkpoint shards do not tile: expected offset {cursor}, got {start}"
            )));
        }
        cursor = start + len;
    }
    if cursor != total {
        return Err(CoreError::Data(format!(
            "checkpoint shards cover {cursor} of {total} parameters"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use hf_core::{Controller, RankCtx, Worker, WorkerLayout};
    use hf_parallel::ParallelSpec;
    use hf_simcluster::{ClusterSpec, ResourcePool};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let d =
            std::env::temp_dir().join(format!("hf-resilience-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// A minimal stateful worker speaking the sharded-checkpoint
    /// contract: full replicated params/moments per rank, ZeRO-style
    /// ownership split (every rank owns its padded slice).
    struct ToyWorker {
        params: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
        gen_round: u64,
        opt_t: u64,
    }

    impl ToyWorker {
        fn new(n: usize) -> Self {
            ToyWorker {
                params: (0..n).map(|i| i as f32 + 0.5).collect(),
                m: (0..n).map(|i| i as f32 * 0.1).collect(),
                v: (0..n).map(|i| i as f32 * 0.01).collect(),
                gen_round: 7,
                opt_t: 3,
            }
        }
    }

    impl Worker for ToyWorker {
        fn execute(
            &mut self,
            method: &str,
            data: DataProto,
            ctx: &mut RankCtx,
        ) -> hf_core::Result<DataProto> {
            match method {
                "save_shard" => {
                    let total = self.params.len();
                    let padded = total.div_ceil(ctx.comms.world.size());
                    let start = (ctx.rank * padded).min(total);
                    let end = ((ctx.rank + 1) * padded).min(total);
                    let meta = ShardMeta {
                        rank: ctx.rank,
                        start,
                        len: end - start,
                        owner: true,
                        total,
                        gen_round: self.gen_round,
                        opt_t: self.opt_t,
                    };
                    let shard = [&self.params[start..], &self.m[start..], &self.v[start..]];
                    Ok(encode_shard(meta, padded, shard))
                }
                "load_checkpoint" => {
                    let p = decode_load(&data, self.params.len())?;
                    let (m, v, t) = p.opt.expect("toy payloads carry moments");
                    (self.m, self.v, self.opt_t) = (m.to_vec(), v.to_vec(), t);
                    self.params = p.params.to_vec();
                    self.gen_round = p.gen_round.unwrap_or(0);
                    Ok(DataProto::empty())
                }
                "scramble" => {
                    for x in &mut self.params {
                        *x = -*x;
                    }
                    self.gen_round = 999;
                    Ok(DataProto::empty())
                }
                "dump" => {
                    let mut out = DataProto::with_rows(1);
                    out.insert_f32("params", self.params.clone(), self.params.len());
                    out.insert_f32("m", self.m.clone(), self.m.len());
                    out.meta.insert("gen_round".into(), self.gen_round.to_string());
                    Ok(out)
                }
                other => Err(CoreError::Worker(format!("no method {other}"))),
            }
        }
    }

    fn setup_world(n_params: usize, world: usize) -> (Controller, hf_core::WorkerGroup) {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(world));
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, world));
        let g = ctrl
            .spawn_group("toy", &ResourcePool::contiguous(0, world), layout, |_r| {
                Box::new(ToyWorker::new(n_params)) as Box<dyn Worker>
            })
            .unwrap();
        (ctrl, g)
    }

    fn setup(n_params: usize) -> (Controller, hf_core::WorkerGroup) {
        setup_world(n_params, 2)
    }

    #[test]
    fn save_commit_restore_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::new(&dir).unwrap();
        // 103 params across 2 ranks exercises the padded tail.
        let (_ctrl, g) = setup(103);
        let report = store.save_group(&g, 4).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.total_params, 103);
        // Uncommitted steps are invisible.
        assert_eq!(store.latest_step(), None);
        store.commit(4, &["toy"]).unwrap();
        assert_eq!(store.latest_step(), Some(4));

        // Corrupt the live state, then restore.
        g.call_sync("scramble", &DataProto::empty(), Protocol::OneToAll).unwrap();
        let st = store.restore_group(&g, 4).unwrap();
        assert_eq!(st.params.len(), 103);
        assert_eq!(st.gen_round, 7);
        assert_eq!(st.opt_t, 3);
        let dump = g.call_sync("dump", &DataProto::empty(), Protocol::AllToAll).unwrap();
        let (p, w) = dump.f32("params").unwrap();
        assert_eq!(w, 103);
        let expect = ToyWorker::new(103);
        for r in 0..2 {
            assert_eq!(&p[r * w..(r + 1) * w], &expect.params[..], "rank {r} params restored");
        }
        assert_eq!(dump.meta.get("gen_round").map(String::as_str), Some("7"));
    }

    #[test]
    fn corrupted_shard_is_detected_by_content_hash() {
        let dir = tmp_dir("corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_ctrl, g) = setup(64);
        store.save_group(&g, 1).unwrap();
        store.commit(1, &["toy"]).unwrap();
        // Flip one payload byte in one shard file.
        let shard = store.step_dir(1).join("toy-rank-001.bin");
        let mut bytes = fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&shard, &bytes).unwrap();
        let err = store.load_group(1, "toy");
        assert!(matches!(&err, Err(CoreError::Data(m)) if m.contains("hash mismatch")), "{err:?}");
    }

    #[test]
    fn latest_step_picks_newest_committed() {
        let dir = tmp_dir("latest");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_ctrl, g) = setup(16);
        for step in [2, 5, 9] {
            store.save_group(&g, step).unwrap();
        }
        store.commit(2, &["toy"]).unwrap();
        store.commit(5, &["toy"]).unwrap();
        // Step 9 is saved but never committed: a simulated crash
        // mid-checkpoint must roll back to 5, not 9.
        assert_eq!(store.latest_step(), Some(5));
    }

    #[test]
    fn restore_into_strictly_smaller_world() {
        // Elastic re-mapping restores a checkpoint saved under a larger
        // layout into a group with *fewer* ranks (8→7-style shrink).
        // The saved shards tile the vector by the *saving* world, so
        // coverage verification must pass regardless of the restoring
        // world, including when the saved world does not divide the
        // parameter count and the tail shard is zero-length.
        for n_params in [103usize, 3] {
            let dir = tmp_dir("shrink");
            let store = CheckpointStore::new(&dir).unwrap();
            let (_c4, big) = setup_world(n_params, 4);
            let report = store.save_group(&big, 2).unwrap();
            assert_eq!(report.shards, 4, "every rank owns a slice at world 4");
            store.commit(2, &["toy"]).unwrap();

            let (_c2, small) = setup_world(n_params, 2);
            small.call_sync("scramble", &DataProto::empty(), Protocol::OneToAll).unwrap();
            let st = store
                .restore_group(&small, 2)
                .expect("restore into a smaller world must pass coverage");
            assert_eq!(st.params.len(), n_params);
            let dump = small.call_sync("dump", &DataProto::empty(), Protocol::AllToAll).unwrap();
            let (p, w) = dump.f32("params").unwrap();
            let expect = ToyWorker::new(n_params);
            for r in 0..2 {
                assert_eq!(&p[r * w..(r + 1) * w], &expect.params[..], "rank {r} restored");
            }
        }
    }

    #[test]
    fn smaller_world_resave_of_same_step_cleans_stale_shards() {
        // Elastic re-mapping's rebuild-from-seeds path re-saves step 0
        // from the remapped (smaller) group into the same directory the
        // interrupted bigger-world save used. The rewritten manifest is
        // authoritative, but the bigger world's extra shard files must
        // not linger (nor ever be resurrected by a later load).
        let dir = tmp_dir("resave");
        let store = CheckpointStore::new(&dir).unwrap();
        let (_c4, big) = setup_world(103, 4);
        store.save_group(&big, 0).unwrap();
        assert!(store.step_dir(0).join("toy-rank-003.bin").is_file());

        let (_c2, small) = setup_world(103, 2);
        let report = store.save_group(&small, 0).unwrap();
        assert_eq!(report.shards, 2);
        store.commit(0, &["toy"]).unwrap();
        assert!(!store.step_dir(0).join("toy-rank-002.bin").is_file(), "stale shard removed");
        assert!(!store.step_dir(0).join("toy-rank-003.bin").is_file(), "stale shard removed");
        let st = store.load_group(0, "toy").unwrap();
        assert_eq!(st.params, ToyWorker::new(103).params);
    }

    #[test]
    fn disagreeing_owner_shards_are_rejected() {
        // A group whose owners disagree on the vector size (a half-torn-
        // down group mid-remap) must fail the save loudly instead of
        // assembling an inconsistent checkpoint.
        struct SkewWorker(ToyWorker);
        impl Worker for SkewWorker {
            fn execute(
                &mut self,
                method: &str,
                data: DataProto,
                ctx: &mut RankCtx,
            ) -> hf_core::Result<DataProto> {
                let mut out = self.0.execute(method, data, ctx)?;
                if method == "save_shard" && ctx.rank == 1 {
                    let (meta, w) = out.f32("shard_meta").unwrap();
                    let mut skewed = meta.to_vec();
                    skewed[4] += 1.0; // rank 1 claims a different total
                    out.insert_f32("shard_meta", skewed, w);
                }
                Ok(out)
            }
        }
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(2));
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("toy", &ResourcePool::contiguous(0, 2), layout, |_r| {
                Box::new(SkewWorker(ToyWorker::new(16))) as Box<dyn Worker>
            })
            .unwrap();
        let dir = tmp_dir("skew");
        let store = CheckpointStore::new(&dir).unwrap();
        let err = store.save_group(&g, 1);
        assert!(
            matches!(&err, Err(CoreError::Data(m)) if m.contains("disagrees with the group")),
            "{err:?}"
        );
    }

    #[test]
    fn coverage_check_rejects_gaps() {
        assert!(check_coverage([(0, 4), (6, 4)], 10).is_err());
        assert!(check_coverage([(0, 4)], 10).is_err());
        assert!(check_coverage([(4, 6), (0, 4), (10, 0)], 10).is_ok());
    }
}
