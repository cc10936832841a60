//! The one postings writer: a segment's index under the dictionary.
//!
//! A flush and a merging compaction both write a segment whose keys are
//! the live index's dictionary, and neither mines nor scans a document.
//! For each dictionary key in order, the writer concatenates what each
//! source holds for it, in source order, leaving out deleted documents.
//! Sources cover disjoint, ascending ranges of the new segment's
//! documents, so the concatenation is sorted.
//!
//! A source is either a write-buffer chunk (its runs by key id, recorded
//! as documents arrived, under the local ids the flushed segment keeps,
//! its store being the adopted WAL) or a sealed segment, whose ids a
//! compaction maps through the source's remap (`None`: deleted) and
//! whose postings section is read once, in key order, by a
//! [`PostingsStream`] that checks the section's CRC. A segment holding a key outside the dictionary, an id
//! beyond its documents, or damaged postings is [`Error::Corrupt`].

use crate::dead::DeadBits;
use crate::error::{Error, Result};
use crate::memtable::Chunk;
use free_corpus::DocId;
use free_index::{IndexWriter, Keys, PostingsStream};

/// Where a segment's postings come from.
pub(crate) enum Source<'a> {
    /// A write-buffer chunk, from its run number `next` on, whose
    /// documents keep their local ids, less the `dead` ones.
    Chunk {
        chunk: &'a Chunk,
        next: usize,
        dead: &'a DeadBits,
    },
    /// A sealed segment's postings section, with the map from its local
    /// ids to the new segment's (`None`: left out).
    Segment {
        id: u64,
        stream: PostingsStream<'a>,
        remap: Vec<Option<DocId>>,
    },
}

impl<'a> Source<'a> {
    pub(crate) fn chunk(chunk: &'a Chunk, dead: &'a DeadBits) -> Source<'a> {
        Source::Chunk {
            chunk,
            next: 0,
            dead,
        }
    }

    /// Appends to `out` the new ids of this source's documents holding
    /// dictionary key number `id`, whose bytes are `key`. Keys are asked
    /// for in ascending order, each once.
    fn append(
        &mut self,
        id: usize,
        key: &[u8],
        scratch: &mut Vec<DocId>,
        out: &mut Vec<DocId>,
    ) -> Result<()> {
        match self {
            Source::Chunk { chunk, next, dead } => {
                if chunk.keys.get(*next).is_some_and(|&k| k as usize == id) {
                    let run = chunk.run(*next);
                    if dead.count() == 0 {
                        out.extend_from_slice(run);
                    } else {
                        out.extend(run.iter().filter(|&&l| !dead.contains(l as usize)));
                    }
                    *next += 1;
                }
            }
            Source::Segment { id, stream, remap } => match stream.peek_key() {
                Some(k) if k == key => {
                    stream.next_into(scratch).map_err(|e| damaged(*id, e))?;
                    map(scratch, remap, out).map_err(|e| damaged(*id, e))?;
                }
                Some(k) if k < key => return Err(outside(*id, k)),
                _ => {}
            },
        }
        Ok(())
    }

    /// Checks that a segment held nothing but dictionary keys, and that
    /// its postings section matched its CRC. (A chunk's key ids are the
    /// dictionary's automaton's own.)
    fn finish(self) -> Result<()> {
        match self {
            Source::Chunk { .. } => Ok(()),
            Source::Segment { id, stream, .. } => match stream.peek_key() {
                Some(k) => Err(outside(id, k)),
                None => stream.finish().map_err(|e| damaged(id, e)),
            },
        }
    }
}

/// Writes `keys`, the dictionary in ascending order, into `writer`: each
/// with the concatenation of what `sources` hold for it. A key no source
/// has a document for is written with an empty list when `keep_empty`
/// (a compaction's segment defines the dictionary, so it keeps every
/// key), and left out otherwise.
pub(crate) fn write_postings(
    keys: Keys<'_>,
    mut sources: Vec<Source<'_>>,
    keep_empty: bool,
    writer: &mut IndexWriter,
) -> Result<()> {
    let (mut docs, mut scratch) = (Vec::new(), Vec::new());
    for (id, key) in keys.iter().enumerate() {
        docs.clear();
        for source in &mut sources {
            source.append(id, key, &mut scratch, &mut docs)?;
        }
        if keep_empty || !docs.is_empty() {
            writer.add_sorted(key, &docs)?;
        }
    }
    sources.into_iter().try_for_each(Source::finish)
}

/// Appends `remap[l]` for each of `locals` that is written.
fn map(locals: &[DocId], remap: &[Option<DocId>], out: &mut Vec<DocId>) -> Result<()> {
    for &local in locals {
        match remap.get(local as usize) {
            Some(&Some(new)) => out.push(new),
            Some(None) => {}
            None => {
                return Err(Error::Corrupt(format!(
                    "postings name document {local} of {}",
                    remap.len()
                )))
            }
        }
    }
    Ok(())
}

/// Damage found reading segment `id`'s postings.
fn damaged(id: u64, e: impl Into<Error>) -> Error {
    match e.into() {
        Error::Index(free_index::Error::Corrupt(m)) | Error::Corrupt(m) => {
            Error::Corrupt(format!("segment {id} postings: {m}"))
        }
        other => other,
    }
}

fn outside(id: u64, key: &[u8]) -> Error {
    Error::Corrupt(format!(
        "segment {id} holds key {:?}, which the dictionary lacks",
        String::from_utf8_lossy(key)
    ))
}
