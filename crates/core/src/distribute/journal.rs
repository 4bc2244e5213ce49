//! Crash-safe campaign manifest journal.
//!
//! The driver appends every *worker-produced* point outcome — successful
//! metrics as their bit-exact cache-entry rendering, deterministic
//! simulation failures as their message — to a plain-text journal, one
//! record at a time, flushed per record. After a driver crash,
//! `--resume` replays the journal and only dispatches the points it does
//! not cover. Transport-level failures (a shard that exhausted its
//! retries) are deliberately *not* journaled: they describe the cluster,
//! not the campaign, and a resume should retry them.
//!
//! ## Format
//!
//! ```text
//! nocout-shard-journal v1
//! campaign <fnv64-hex> points <n>
//! ok <index>
//! <cache-entry text, one or more lines>
//! end <index>
//! fail <index> <message, \n escaped as \\n>
//! end <index>
//! ```
//!
//! The `campaign` line fingerprints the spec sequence (FNV-1a 64 over
//! every `RunSpec::cache_key`), so a journal can never be replayed
//! against a different campaign. Every record is terminated by a
//! matching `end <index>` marker: a record the crash tore in half has no
//! marker, so [`Journal::resume`] stops at the last complete record and
//! truncates the torn tail before appending resumes. `ok` entries are
//! re-verified against their spec's canonical key on load — a corrupt
//! body degrades to "not covered", never to wrong data.

use super::wire::WireError;
use crate::cache::parse_entry;
use crate::runner::{PointError, RunSpec};
use nocout_sim::{fnv1a, FNV_BASIS};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const FORMAT: &str = "nocout-shard-journal v1";

/// FNV-1a 64 fingerprint of a campaign's spec sequence.
pub fn campaign_fingerprint(specs: &[RunSpec]) -> u64 {
    specs.iter().fold(FNV_BASIS, |h, spec| {
        fnv1a(fnv1a(h, spec.cache_key().as_bytes()), b"\n")
    })
}

/// One outcome recovered from a journal.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// The point completed; the entry text parses bit-exactly.
    Ok(String),
    /// The point failed deterministically worker-side.
    Failed(String),
}

/// An append-only, crash-safe record of completed campaign points.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Journal {
    /// Starts a fresh journal for this campaign, truncating `path`.
    ///
    /// # Errors
    ///
    /// File creation/write errors.
    pub fn create(path: &Path, specs: &[RunSpec]) -> std::io::Result<Journal> {
        let mut writer = BufWriter::new(File::create(path)?);
        writeln!(writer, "{FORMAT}")?;
        writeln!(
            writer,
            "campaign {:016x} points {}",
            campaign_fingerprint(specs),
            specs.len()
        )?;
        writer.flush()?;
        Ok(Journal {
            writer,
            path: path.to_path_buf(),
        })
    }

    /// Resumes from an existing journal: verifies the campaign
    /// fingerprint, replays every complete record, truncates any torn
    /// tail, and returns the journal (positioned for appending) plus the
    /// recovered outcomes keyed by global spec index. A missing file is
    /// the same as a fresh [`Journal::create`].
    ///
    /// # Errors
    ///
    /// I/O errors, and [`WireError::Malformed`] when the journal belongs
    /// to a *different* campaign (wrong fingerprint or point count) —
    /// resuming someone else's journal is a configuration error, not a
    /// torn tail.
    pub fn resume(
        path: &Path,
        specs: &[RunSpec],
    ) -> Result<(Journal, Vec<Option<JournalRecord>>), WireError> {
        if !path.exists() {
            let journal = Journal::create(path, specs).map_err(WireError::Io)?;
            return Ok((journal, vec![None; specs.len()]));
        }
        let text = std::fs::read_to_string(path).map_err(WireError::Io)?;
        let mut recovered: Vec<Option<JournalRecord>> = vec![None; specs.len()];
        // Byte offset of the last complete record (initialized after the
        // header validates).
        let mut good_end;
        let mut offset = 0usize;
        let mut lines = text.split_inclusive('\n');
        let mut next = |offset: &mut usize| -> Option<&str> {
            let line = lines.next()?;
            *offset += line.len();
            // A last line without '\n' is by definition torn.
            line.strip_suffix('\n')
        };
        let header_ok = next(&mut offset) == Some(FORMAT);
        if !header_ok {
            return Err(WireError::Malformed(format!(
                "{} is not a shard journal",
                path.display()
            )));
        }
        match next(&mut offset) {
            Some(line) => {
                let expect = format!(
                    "campaign {:016x} points {}",
                    campaign_fingerprint(specs),
                    specs.len()
                );
                if line != expect {
                    return Err(WireError::Malformed(format!(
                        "journal {} belongs to a different campaign \
                         (found `{line}`, this campaign is `{expect}`) — \
                         pass a fresh --journal path or drop --resume",
                        path.display()
                    )));
                }
            }
            None => {
                return Err(WireError::Malformed(format!(
                    "journal {} is truncated before its campaign line",
                    path.display()
                )))
            }
        }
        good_end = offset;

        // Records: parse greedily, stop at the first torn or invalid one.
        'records: while let Some(head) = next(&mut offset) {
            let (record, index) = if let Some(rest) = head.strip_prefix("ok ") {
                let Ok(index) = rest.parse::<usize>() else { break };
                if index >= specs.len() {
                    break;
                }
                let marker = format!("end {index}");
                let mut body = String::new();
                loop {
                    match next(&mut offset) {
                        None => break 'records, // torn mid-record
                        Some(line) if line == marker => break,
                        Some(line) => {
                            body.push_str(line);
                            body.push('\n');
                        }
                    }
                }
                if parse_entry(&body, &specs[index].cache_key()).is_none() {
                    break; // corrupt body: not covered, stop trusting the file
                }
                (JournalRecord::Ok(body), index)
            } else if let Some(rest) = head.strip_prefix("fail ") {
                let Some((idx, msg)) = rest.split_once(' ') else { break };
                let Ok(index) = idx.parse::<usize>() else { break };
                if index >= specs.len() {
                    break;
                }
                match next(&mut offset) {
                    Some(line) if line == format!("end {index}") => {}
                    _ => break, // torn
                }
                (JournalRecord::Failed(msg.replace("\\n", "\n")), index)
            } else {
                break;
            };
            recovered[index] = Some(record);
            good_end = offset;
        }

        // Truncate the torn tail, then append after it.
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(WireError::Io)?;
        file.set_len(good_end as u64).map_err(WireError::Io)?;
        let mut writer = BufWriter::new(file);
        writer
            .seek(SeekFrom::Start(good_end as u64))
            .map_err(WireError::Io)?;
        Ok((
            Journal {
                writer,
                path: path.to_path_buf(),
            },
            recovered,
        ))
    }

    /// The journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one successful point (its bit-exact cache-entry text) and
    /// flushes — after this returns, a crash cannot lose the record.
    ///
    /// # Errors
    ///
    /// Write errors.
    pub fn record_ok(&mut self, index: usize, entry: &str) -> std::io::Result<()> {
        writeln!(self.writer, "ok {index}")?;
        self.writer.write_all(entry.as_bytes())?;
        if !entry.ends_with('\n') {
            writeln!(self.writer)?;
        }
        writeln!(self.writer, "end {index}")?;
        self.writer.flush()
    }

    /// Appends one deterministic worker-side failure and flushes.
    ///
    /// # Errors
    ///
    /// Write errors.
    pub fn record_failed(&mut self, index: usize, error: &PointError) -> std::io::Result<()> {
        writeln!(
            self.writer,
            "fail {index} {}",
            error.message.replace('\n', "\\n")
        )?;
        writeln!(self.writer, "end {index}")?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipConfig, Organization};
    use nocout_workloads::Workload;

    fn specs() -> Vec<RunSpec> {
        (1..=3)
            .map(|seed| {
                RunSpec::new(
                    ChipConfig::with_cores(Organization::Mesh, 16),
                    Workload::WebSearch,
                )
                .fast()
                .with_seed(seed)
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nocout-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn journal_round_trips_and_survives_torn_tail() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let specs = specs();
        let metrics = crate::runner::run(&specs[0]);
        let entry = crate::cache::render_entry(&specs[0].cache_key(), &metrics);
        {
            let mut j = Journal::create(&path, &specs).unwrap();
            j.record_ok(0, &entry).unwrap();
            j.record_failed(
                1,
                &PointError {
                    cache_key: specs[1].cache_key(),
                    message: "boom\nwith detail".into(),
                },
            )
            .unwrap();
        }
        // Tear the file mid-record: an `ok 2` header with half a body and
        // no end marker, as a crash between write and flush would leave.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "ok 2\nnocout-results-cache v1\nkey trunca").unwrap();
        }
        let (mut j, recovered) = Journal::resume(&path, &specs).unwrap();
        assert!(matches!(&recovered[0], Some(JournalRecord::Ok(e)) if *e == entry));
        assert!(
            matches!(&recovered[1], Some(JournalRecord::Failed(m)) if m == "boom\nwith detail")
        );
        assert!(recovered[2].is_none(), "torn record must not be trusted");
        // The torn tail is gone: appending record 2 (rendered against its
        // own spec's key — entries must verify) and resuming again
        // recovers all three.
        j.record_ok(2, &crate::cache::render_entry(&specs[2].cache_key(), &metrics))
            .unwrap();
        drop(j);
        let (_, recovered) = Journal::resume(&path, &specs).unwrap();
        assert!(recovered.iter().all(Option::is_some));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_refuses_a_different_campaign() {
        let path = tmp("fingerprint");
        let _ = std::fs::remove_file(&path);
        let specs = specs();
        drop(Journal::create(&path, &specs).unwrap());
        let other: Vec<RunSpec> = specs.iter().map(|s| s.clone().with_seed(99)).collect();
        let err = Journal::resume(&path, &other).unwrap_err();
        assert!(
            err.to_string().contains("different campaign"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_the_spec_sequence() {
        let a = specs();
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(campaign_fingerprint(&a), campaign_fingerprint(&b));
        assert_eq!(campaign_fingerprint(&a), campaign_fingerprint(&a.clone()));
    }
}
