//! Object layout and access on top of [`NodeMemory`].
//!
//! An object reference is the address of its header (see [`crate::layout`]).
//! Which data words hold pointers is fixed at allocation time and recorded in
//! the segment's reference-map; the accessors here enforce that split —
//! writing a pointer into a non-pointer slot (or vice versa) is a
//! [`BmxError::RefMapMismatch`], the reproduction's equivalent of the paper's
//! compiler-enforced write instrumentation.

use bmx_common::{Addr, Bitmap, BmxError, Oid, Result, SharedWords};

use crate::layout::{self, ObjFlags, HEADER_WORDS};
use crate::memory::{MappedSegment, NodeMemory};

/// Decoded header of one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectView {
    /// The object's address (header start).
    pub addr: Addr,
    /// Data size in words (header excluded).
    pub size: u64,
    /// Stable object id.
    pub oid: Oid,
    /// Header flags.
    pub flags: ObjFlags,
    /// Forwarding address left by a collector copy, or null.
    pub forwarding: Addr,
}

impl ObjectView {
    /// Total footprint in words, header included.
    pub fn footprint(&self) -> u64 {
        HEADER_WORDS + self.size
    }

    /// Returns `true` if the object has been copied and forwards elsewhere.
    pub fn is_forwarded(&self) -> bool {
        self.flags.contains(ObjFlags::FORWARDED)
    }
}

/// Bump-allocates an object with `data_words` data words inside `seg`.
///
/// `ref_fields` lists the field indices that will hold pointers; they are
/// recorded in the segment's reference-map. The caller supplies the stable
/// `oid` (the integrated platform derives it from a per-node counter).
/// Returns the new object's address. All data words start as zero / null.
pub fn alloc_in_segment(
    seg: &mut MappedSegment,
    oid: Oid,
    data_words: u64,
    ref_fields: &[u64],
) -> Result<Addr> {
    let need = HEADER_WORDS + data_words;
    if seg.free_words() < need {
        return Err(BmxError::OutOfMemory {
            bunch: seg.info.bunch,
            words: data_words,
        });
    }
    for &f in ref_fields {
        if f >= data_words {
            return Err(BmxError::FieldOutOfBounds {
                addr: seg.info.base.add_words(seg.alloc_cursor),
                field: f,
                size: data_words,
            });
        }
    }
    let start = seg.alloc_cursor;
    seg.alloc_cursor += need;
    let addr = seg.info.base.add_words(start);
    seg.words[start as usize] = layout::pack_header0(data_words, ObjFlags::default());
    seg.words[start as usize + 1] = oid.0;
    seg.words[start as usize + 2] = Addr::NULL.0;
    // Data words were either never used or belong to a reused from-space;
    // clear them and the stale map bits of the footprint.
    for w in &mut seg.words[(start + HEADER_WORDS) as usize..(start + need) as usize] {
        *w = 0;
    }
    for i in start..start + need {
        seg.ref_map.clear(i as usize);
        if i != start {
            seg.object_map.clear(i as usize);
        }
    }
    seg.object_map.set(start as usize);
    for &f in ref_fields {
        seg.ref_map.set((start + HEADER_WORDS + f) as usize);
    }
    Ok(addr)
}

/// Reads and decodes the header of the object at `addr`.
///
/// Fails with [`BmxError::NotAnObject`] if the object-map has no header bit
/// at `addr`.
pub fn view(mem: &NodeMemory, addr: Addr) -> Result<ObjectView> {
    Ok(header_at(mem, addr)?.1)
}

/// The mapped segment holding the object at `addr` and the word offset of
/// its header: the one address resolution of every accessor below.
fn object_at(mem: &NodeMemory, addr: Addr) -> Result<(&MappedSegment, usize)> {
    let (seg, off) = mem.resolve(addr)?;
    if !seg.object_map.get(off as usize) {
        return Err(BmxError::NotAnObject { addr });
    }
    Ok((seg, off as usize))
}

/// [`object_at`], mutably.
fn object_at_mut(mem: &mut NodeMemory, addr: Addr) -> Result<(&mut MappedSegment, usize)> {
    let (seg, off) = mem.resolve_mut(addr)?;
    if !seg.object_map.get(off as usize) {
        return Err(BmxError::NotAnObject { addr });
    }
    Ok((seg, off as usize))
}

/// The mapped segment holding the object at `addr`, with its decoded header.
fn header_at(mem: &NodeMemory, addr: Addr) -> Result<(&MappedSegment, ObjectView)> {
    let (seg, off) = object_at(mem, addr)?;
    Ok((seg, view_at(seg, off)))
}

/// Decodes the header starting at word offset `off` of `seg`. The caller
/// vouches that the object-map has a header bit there.
pub fn view_at(seg: &MappedSegment, off: usize) -> ObjectView {
    let h0 = seg.words[off];
    ObjectView {
        addr: seg.info.base.add_words(off as u64),
        size: layout::header0_size(h0),
        oid: Oid(seg.words[off + 1]),
        flags: layout::header0_flags(h0),
        forwarding: Addr(seg.words[off + 2]),
    }
}

/// Decoded headers of every object in the segment, ascending — the
/// in-place form of [`objects_in`] + [`view`]: nothing is allocated and the
/// segment is resolved once, not once per object.
pub fn views_in(seg: &MappedSegment) -> impl Iterator<Item = ObjectView> + '_ {
    seg.object_map.iter_ones().map(move |off| view_at(seg, off))
}

/// `(field index, target)` of every pointer field of the object `v` of
/// `seg`, read in place — the allocation-free form of [`ref_fields`].
pub fn refs_of<'a>(
    seg: &'a MappedSegment,
    v: &ObjectView,
) -> impl Iterator<Item = (u64, Addr)> + 'a {
    let base = (v.addr.words_from(seg.info.base) + HEADER_WORDS) as usize;
    seg.ref_map
        .ones_in(base, base + v.size as usize)
        .map(move |idx| ((idx - base) as u64, Addr(seg.words[idx])))
}

/// The data words of the object `v` of `seg`.
fn data_of<'a>(seg: &'a MappedSegment, v: &ObjectView) -> &'a [u64] {
    let base = (v.addr.words_from(seg.info.base) + HEADER_WORDS) as usize;
    &seg.words[base..base + v.size as usize]
}

/// Passes every non-null pointer field of the object whose header starts at
/// word offset `off` through `f` and stores the result back where it
/// differs.
fn rewrite_refs_at(
    words: &mut [u64],
    ref_map: &Bitmap,
    off: usize,
    f: &mut impl FnMut(Addr) -> Addr,
) {
    let base = off + HEADER_WORDS as usize;
    let end = base + layout::header0_size(words[off]) as usize;
    for idx in ref_map.ones_in(base, end) {
        let old = Addr(words[idx]);
        if old.is_null() {
            continue;
        }
        let new = f(old);
        if new != old {
            words[idx] = new.0;
        }
    }
}

/// Rewrites the pointer fields of the object at `addr` in place: every
/// non-null target goes through `f`, and only changed slots are stored.
/// Collector use (no barrier).
pub fn rewrite_refs(
    mem: &mut NodeMemory,
    addr: Addr,
    mut f: impl FnMut(Addr) -> Addr,
) -> Result<()> {
    let (seg, off) = object_at_mut(mem, addr)?;
    rewrite_refs_at(&mut seg.words, &seg.ref_map, off, &mut f);
    Ok(())
}

/// [`rewrite_refs`] over every non-forwarded object of `seg` (a forwarded
/// header's data words are a dead copy nobody reads).
pub fn rewrite_refs_in(seg: &mut MappedSegment, mut f: impl FnMut(Addr) -> Addr) {
    for off in seg.object_map.iter_ones() {
        if !layout::header0_flags(seg.words[off]).contains(ObjFlags::FORWARDED) {
            rewrite_refs_at(&mut seg.words, &seg.ref_map, off, &mut f);
        }
    }
}

/// Index in `seg.words` of data word `field` of the object whose header
/// starts at word offset `off` (the caller vouches for the header bit).
/// `want_ref` says whether the reference-map must (`Some(true)`) or must
/// not (`Some(false)`) mark it a pointer slot.
fn slot_at(seg: &MappedSegment, off: usize, field: u64, want_ref: Option<bool>) -> Result<usize> {
    let addr = seg.info.base.add_words(off as u64);
    let size = layout::header0_size(seg.words[off]);
    if field >= size {
        return Err(BmxError::FieldOutOfBounds { addr, field, size });
    }
    let slot = off + (HEADER_WORDS + field) as usize;
    if want_ref.is_some_and(|want| want != seg.ref_map.get(slot)) {
        return Err(BmxError::RefMapMismatch { addr, field });
    }
    Ok(slot)
}

/// Reads data word `field` (pointer or not) of the object whose header
/// starts at word offset `off` of `seg`. This and the three `_at` accessors
/// below are the segment-relative forms: for a caller that has already
/// resolved the object (and checked its header bit), they cost the bounds
/// check, the map test and the word access — nothing is looked up again.
pub fn read_field_at(seg: &MappedSegment, off: usize, field: u64) -> Result<u64> {
    Ok(seg.words[slot_at(seg, off, field, None)?])
}

/// Reads pointer field `field`; [`BmxError::RefMapMismatch`] if the slot is
/// not a pointer slot.
pub fn read_ref_field_at(seg: &MappedSegment, off: usize, field: u64) -> Result<Addr> {
    Ok(Addr(seg.words[slot_at(seg, off, field, Some(true))?]))
}

/// Writes a non-pointer value into data word `field`;
/// [`BmxError::RefMapMismatch`] if the slot is a pointer slot.
pub fn write_data_field_at(
    seg: &mut MappedSegment,
    off: usize,
    field: u64,
    value: u64,
) -> Result<()> {
    let slot = slot_at(seg, off, field, Some(false))?;
    seg.words[slot] = value;
    Ok(())
}

/// Writes a pointer into pointer slot `field` (no barrier — the write
/// barrier calls this after resolving the addresses);
/// [`BmxError::RefMapMismatch`] if the slot is not a pointer slot.
pub fn write_ref_field_at(
    seg: &mut MappedSegment,
    off: usize,
    field: u64,
    target: Addr,
) -> Result<()> {
    let slot = slot_at(seg, off, field, Some(true))?;
    seg.words[slot] = target.0;
    Ok(())
}

/// [`read_field_at`] on the object at `addr`.
pub fn read_field(mem: &NodeMemory, addr: Addr, field: u64) -> Result<u64> {
    let (seg, off) = object_at(mem, addr)?;
    read_field_at(seg, off, field)
}

/// [`read_ref_field_at`] on the object at `addr`.
pub fn read_ref_field(mem: &NodeMemory, addr: Addr, field: u64) -> Result<Addr> {
    let (seg, off) = object_at(mem, addr)?;
    read_ref_field_at(seg, off, field)
}

/// [`write_data_field_at`] on the object at `addr`.
pub fn write_data_field(mem: &mut NodeMemory, addr: Addr, field: u64, value: u64) -> Result<()> {
    let (seg, off) = object_at_mut(mem, addr)?;
    write_data_field_at(seg, off, field, value)
}

/// [`write_ref_field_at`] on the object at `addr`.
pub fn write_ref_field(mem: &mut NodeMemory, addr: Addr, field: u64, target: Addr) -> Result<()> {
    let (seg, off) = object_at_mut(mem, addr)?;
    write_ref_field_at(seg, off, field, target)
}

/// Marks the object at `addr` as forwarded to `to` (collector use).
pub fn set_forwarding(mem: &mut NodeMemory, addr: Addr, to: Addr) -> Result<()> {
    let (seg, off) = object_at_mut(mem, addr)?;
    let h0 = seg.words[off];
    seg.words[off] = layout::pack_header0(
        layout::header0_size(h0),
        layout::header0_flags(h0).with(ObjFlags::FORWARDED),
    );
    seg.words[off + 2] = to.0;
    Ok(())
}

/// Returns `(field index, target)` for every pointer field of the object.
///
/// Scans the reference map word-parallel ([`Bitmap::ones_in`]): the trace
/// and update phases of every collection call this once per live object,
/// so the per-slot loop it replaced dominated BGC phase time on sparse
/// maps.
///
/// [`Bitmap::ones_in`]: bmx_common::Bitmap::ones_in
pub fn ref_fields(mem: &NodeMemory, addr: Addr) -> Result<Vec<(u64, Addr)>> {
    let (seg, v) = header_at(mem, addr)?;
    Ok(refs_of(seg, &v).collect())
}

/// Copies the data words of the object at `addr` (for transfer or GC copy).
pub fn data_words(mem: &NodeMemory, addr: Addr) -> Result<Vec<u64>> {
    let (seg, v) = header_at(mem, addr)?;
    Ok(data_of(seg, &v).to_vec())
}

/// Overwrites the data words of the object at `addr` (DSM install of a
/// received consistent copy).
pub fn install_data_words(mem: &mut NodeMemory, addr: Addr, data: &[u64]) -> Result<()> {
    let (seg, off) = object_at_mut(mem, addr)?;
    let size = layout::header0_size(seg.words[off]);
    if data.len() as u64 != size {
        return Err(BmxError::FieldOutOfBounds {
            addr,
            field: data.len() as u64,
            size,
        });
    }
    let start = off + HEADER_WORDS as usize;
    seg.words[start..start + data.len()].copy_from_slice(data);
    Ok(())
}

/// Shape and contents of an object, as shipped in DSM grants and relocation
/// installs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectImage {
    /// Stable object id.
    pub oid: Oid,
    /// Field indices that hold pointers.
    pub ref_fields: Vec<u64>,
    /// Data words (length = object size), in a refcounted slab: cloning an
    /// image (network fault duplication, retries) shares the words instead
    /// of copying them. The only memcpy is the capture itself.
    pub data: SharedWords,
}

impl ObjectImage {
    /// Captures the image of the object at `addr`.
    ///
    /// Single pass over the segment: the reference map is scanned
    /// word-parallel and the data words sliced once, instead of the two
    /// separate resolve-and-walk passes this used to take.
    pub fn capture(mem: &NodeMemory, addr: Addr) -> Result<ObjectImage> {
        let (seg, v) = header_at(mem, addr)?;
        Ok(ObjectImage {
            oid: v.oid,
            ref_fields: refs_of(seg, &v).map(|(f, _)| f).collect(),
            data: SharedWords::from(data_of(seg, &v)),
        })
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        16 + 8 * (self.ref_fields.len() as u64 + self.data.len() as u64)
    }
}

/// Materializes an object at a specific address (not bump-allocated).
///
/// Used when a node installs a replica it received (DSM grant into an
/// address the node never allocated itself) or applies a relocation. Any
/// previous contents of the footprint are overwritten and the maps updated.
/// The segment's allocation cursor is advanced past the object if needed, so
/// local bump allocation can never collide with installed replicas.
pub fn install_object_at(mem: &mut NodeMemory, addr: Addr, image: &ObjectImage) -> Result<()> {
    install_parts(mem, addr, image.oid, &image.data, &image.ref_fields)
}

fn install_parts(
    mem: &mut NodeMemory,
    addr: Addr,
    oid: Oid,
    data: &[u64],
    ref_fields: &[u64],
) -> Result<()> {
    let size = data.len() as u64;
    for &f in ref_fields {
        if f >= size {
            return Err(BmxError::FieldOutOfBounds {
                addr,
                field: f,
                size,
            });
        }
    }
    let (seg, off) = mem.resolve_mut(addr)?;
    let need = HEADER_WORDS + size;
    if off + need > seg.info.words {
        return Err(BmxError::OutOfMemory {
            bunch: seg.info.bunch,
            words: size,
        });
    }
    seg.words[off as usize] = layout::pack_header0(size, ObjFlags::default());
    seg.words[off as usize + 1] = oid.0;
    seg.words[off as usize + 2] = Addr::NULL.0;
    seg.words[(off + HEADER_WORDS) as usize..(off + need) as usize].copy_from_slice(data);
    seg.ref_map.clear_range(off as usize, (off + need) as usize);
    seg.object_map
        .clear_range(off as usize + 1, (off + need) as usize);
    seg.object_map.set(off as usize);
    for &f in ref_fields {
        seg.ref_map.set((off + HEADER_WORDS + f) as usize);
    }
    if seg.alloc_cursor < off + need {
        seg.alloc_cursor = off + need;
    }
    Ok(())
}

/// Reusable staging buffers for [`copy_object`], so a collection's copies
/// allocate once per run instead of once per object.
#[derive(Default)]
pub struct CopyBuf {
    data: Vec<u64>,
    refs: Vec<u64>,
}

/// Copies the object at `from` to `to` within one node's memory (a
/// collector copy to to-space): same id, shape and data words, fresh
/// unforwarded header. Returns the source's header as it was.
pub fn copy_object(
    mem: &mut NodeMemory,
    from: Addr,
    to: Addr,
    buf: &mut CopyBuf,
) -> Result<ObjectView> {
    let (seg, v) = header_at(mem, from)?;
    buf.data.clear();
    buf.data.extend_from_slice(data_of(seg, &v));
    buf.refs.clear();
    buf.refs.extend(refs_of(seg, &v).map(|(f, _)| f));
    install_parts(mem, to, v.oid, &buf.data, &buf.refs)?;
    Ok(v)
}

/// Addresses of every object header in the segment, ascending.
pub fn objects_in(seg: &MappedSegment) -> Vec<Addr> {
    seg.object_offsets()
        .iter()
        .map(|&o| seg.info.base.add_words(o))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Protection, SegmentInfo, SegmentServer};
    use bmx_common::NodeId;

    fn setup() -> (NodeMemory, crate::server::SegmentInfo) {
        let mut srv = SegmentServer::new(128);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let info = srv.alloc_segment(b).unwrap();
        let mut mem = NodeMemory::new(NodeId(0));
        mem.map_segment(info);
        (mem, info)
    }

    fn alloc(
        mem: &mut NodeMemory,
        info: &crate::server::SegmentInfo,
        oid: u64,
        size: u64,
        refs: &[u64],
    ) -> Addr {
        let seg = mem.segment_mut(info.id).unwrap();
        alloc_in_segment(seg, Oid(oid), size, refs).unwrap()
    }

    #[test]
    fn alloc_and_view() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 4, &[0, 2]);
        let v = view(&mem, a).unwrap();
        assert_eq!(v.size, 4);
        assert_eq!(v.oid, Oid(1));
        assert!(!v.is_forwarded());
        assert_eq!(v.forwarding, Addr::NULL);
        assert_eq!(v.footprint(), 7);
    }

    #[test]
    fn consecutive_allocations_do_not_overlap() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 4, &[]);
        let b = alloc(&mut mem, &info, 2, 2, &[]);
        assert_eq!(b, a.add_words(HEADER_WORDS + 4));
        let objs = objects_in(mem.segment(info.id).unwrap());
        assert_eq!(objs, vec![a, b]);
    }

    #[test]
    fn field_access_respects_ref_map() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 3, &[1]);
        // Field 1 is a pointer slot, fields 0 and 2 are data slots.
        write_data_field(&mut mem, a, 0, 99).unwrap();
        write_ref_field(&mut mem, a, 1, Addr(0x4040)).unwrap();
        assert_eq!(read_field(&mem, a, 0).unwrap(), 99);
        assert_eq!(read_ref_field(&mem, a, 1).unwrap(), Addr(0x4040));
        assert!(matches!(
            write_ref_field(&mut mem, a, 0, Addr(1)),
            Err(BmxError::RefMapMismatch { .. })
        ));
        assert!(matches!(
            write_data_field(&mut mem, a, 1, 5),
            Err(BmxError::RefMapMismatch { .. })
        ));
        assert!(matches!(
            read_ref_field(&mem, a, 2),
            Err(BmxError::RefMapMismatch { .. })
        ));
    }

    #[test]
    fn out_of_bounds_field_rejected() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 2, &[]);
        assert!(matches!(
            read_field(&mem, a, 2),
            Err(BmxError::FieldOutOfBounds { .. })
        ));
    }

    #[test]
    fn ref_fields_enumerates_pointers() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 5, &[0, 3]);
        write_ref_field(&mut mem, a, 0, Addr(0x100)).unwrap();
        write_ref_field(&mut mem, a, 3, Addr(0x200)).unwrap();
        assert_eq!(
            ref_fields(&mem, a).unwrap(),
            vec![(0, Addr(0x100)), (3, Addr(0x200))]
        );
    }

    #[test]
    fn forwarding_round_trip() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 1, &[]);
        set_forwarding(&mut mem, a, Addr(0xF00)).unwrap();
        let v = view(&mem, a).unwrap();
        assert!(v.is_forwarded());
        assert_eq!(v.forwarding, Addr(0xF00));
        assert_eq!(v.size, 1, "size survives the flag update");
    }

    #[test]
    fn data_words_transfer() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 3, &[2]);
        write_data_field(&mut mem, a, 0, 11).unwrap();
        write_ref_field(&mut mem, a, 2, Addr(0x42 * 8)).unwrap();
        let words = data_words(&mem, a).unwrap();
        assert_eq!(words, vec![11, 0, 0x42 * 8]);
        install_data_words(&mut mem, a, &[7, 8, 9]).unwrap();
        assert_eq!(read_field(&mem, a, 0).unwrap(), 7);
        assert!(install_data_words(&mut mem, a, &[1]).is_err());
    }

    #[test]
    fn exhausting_a_segment_fails_cleanly() {
        let (mut mem, info) = setup();
        // 128-word segment, each object needs 3 + 10 words.
        let seg = mem.segment_mut(info.id).unwrap();
        let mut count = 0;
        while alloc_in_segment(seg, Oid(count), 10, &[]).is_ok() {
            count += 1;
        }
        assert_eq!(count, 128 / 13);
        assert!(matches!(
            alloc_in_segment(seg, Oid(99), 10, &[]),
            Err(BmxError::OutOfMemory { .. })
        ));
        // A smaller object may still fit.
        assert!(alloc_in_segment(seg, Oid(100), 1, &[]).is_ok());
    }

    #[test]
    fn view_rejects_non_object_addresses() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 4, &[]);
        assert!(matches!(
            view(&mem, a.add_words(1)),
            Err(BmxError::NotAnObject { .. })
        ));
    }

    #[test]
    fn invalid_ref_field_index_rejected_at_alloc() {
        let (mut mem, info) = setup();
        let seg = mem.segment_mut(info.id).unwrap();
        assert!(matches!(
            alloc_in_segment(seg, Oid(1), 2, &[2]),
            Err(BmxError::FieldOutOfBounds { .. })
        ));
    }

    #[test]
    fn image_capture_and_install_round_trip() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 7, 4, &[1, 3]);
        write_data_field(&mut mem, a, 0, 123).unwrap();
        write_ref_field(&mut mem, a, 1, Addr(0x5550)).unwrap();
        let img = ObjectImage::capture(&mem, a).unwrap();
        assert_eq!(img.oid, Oid(7));
        assert_eq!(img.ref_fields, vec![1, 3]);
        assert_eq!(&img.data[..], &[123, 0x5550, 0, 0]);
        // The send path never copies the words again: a clone (network
        // duplication, retry re-enqueue) aliases the captured slab.
        let dup = img.clone();
        assert!(bmx_common::SharedWords::same_slab(&img.data, &dup.data));

        // Install the image into a different node's fresh replica at the same
        // address (the single-address-space property).
        let mut mem2 = NodeMemory::new(NodeId(1));
        mem2.map_segment(info);
        install_object_at(&mut mem2, a, &img).unwrap();
        let v = view(&mem2, a).unwrap();
        assert_eq!(v.oid, Oid(7));
        assert_eq!(v.size, 4);
        assert_eq!(read_ref_field(&mem2, a, 1).unwrap(), Addr(0x5550));
        assert_eq!(read_field(&mem2, a, 0).unwrap(), 123);
        assert!(read_ref_field(&mem2, a, 0).is_err(), "field 0 is data");
        // The cursor advanced past the installed object.
        assert!(mem2.segment(info.id).unwrap().alloc_cursor >= 7);
    }

    #[test]
    fn install_rejects_overflow_and_bad_refs() {
        let (mut mem, info) = setup();
        let near_end = info.base.add_words(info.words - 2);
        let img = ObjectImage {
            oid: Oid(1),
            ref_fields: vec![],
            data: vec![0; 4].into(),
        };
        assert!(install_object_at(&mut mem, near_end, &img).is_err());
        let bad = ObjectImage {
            oid: Oid(1),
            ref_fields: vec![4],
            data: vec![0; 4].into(),
        };
        assert!(install_object_at(&mut mem, info.base, &bad).is_err());
    }

    #[test]
    fn realloc_over_reused_space_clears_stale_state() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 3, &[1]);
        write_ref_field(&mut mem, a, 1, Addr(0xAAA0)).unwrap();
        // Simulate from-space reuse: reset the cursor and clear the header
        // bit, then allocate a differently shaped object over the same spot.
        {
            let seg = mem.segment_mut(info.id).unwrap();
            let off = a.words_from(info.base) as usize;
            seg.object_map.clear(off);
            seg.alloc_cursor = off as u64;
        }
        let b = alloc(&mut mem, &info, 2, 3, &[0]);
        assert_eq!(b, a);
        let v = view(&mem, b).unwrap();
        assert_eq!(v.oid, Oid(2));
        // Field 1 was a pointer slot before; it must now be plain data.
        assert_eq!(read_field(&mem, b, 1).unwrap(), 0);
        assert!(read_ref_field(&mem, b, 1).is_err());
        assert_eq!(read_ref_field(&mem, b, 0).unwrap(), Addr::NULL);
    }

    /// A segment of random objects: `(data size, pointer-field mask, value
    /// seed, forwarded?, header bit swept?)` each, bump-allocated until the
    /// segment is full.
    fn random_segment(objs: &[(u64, u64, u64, bool, bool)]) -> (NodeMemory, SegmentInfo) {
        let (mut mem, info) = setup();
        for (i, &(size, mask, seed, forwarded, swept)) in objs.iter().enumerate() {
            let refs: Vec<u64> = (0..size).filter(|f| mask >> f & 1 == 1).collect();
            let seg = mem.segment_mut(info.id).unwrap();
            let Ok(a) = alloc_in_segment(seg, Oid(i as u64 + 1), size, &refs) else {
                break;
            };
            for f in 0..size {
                // Every third pointer is null; targets are word-aligned.
                let v = (seed.wrapping_mul(f + 7) % 3) * (0x1_0000 + 8 * (seed % 97 + f));
                if refs.contains(&f) {
                    write_ref_field(&mut mem, a, f, Addr(v)).unwrap();
                } else {
                    write_data_field(&mut mem, a, f, v).unwrap();
                }
            }
            if forwarded {
                set_forwarding(&mut mem, a, Addr(0xF_0000 + 8 * i as u64)).unwrap();
            }
            if swept {
                let off = a.words_from(info.base) as usize;
                mem.segment_mut(info.id).unwrap().object_map.clear(off);
            }
        }
        (mem, info)
    }

    /// The per-slot scanner the in-place ones replace: one map test and one
    /// resolving read per data word.
    fn scalar_refs(mem: &NodeMemory, v: &ObjectView) -> Vec<(u64, Addr)> {
        (0..v.size)
            .filter_map(|f| read_ref_field(mem, v.addr, f).ok().map(|t| (f, t)))
            .collect()
    }

    proptest::proptest! {
        /// `views_in`/`refs_of`/`rewrite_refs_in`/`copy_object` walk a
        /// borrowed segment; each must see and do exactly what the
        /// `objects_in` + `view` + per-field accessors do.
        #[test]
        fn in_place_scanners_match_the_per_object_accessors(
            objs in proptest::collection::vec(
                (0u64..9, 0u64..512, 0u64..1000, proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
                0..24,
            ),
            shift in 1u64..64,
        ) {
            let (mut mem, info) = random_segment(&objs);
            let seg = mem.segment(info.id).unwrap();
            let want: Vec<ObjectView> =
                objects_in(seg).into_iter().map(|a| view(&mem, a).unwrap()).collect();
            let got: Vec<ObjectView> = views_in(seg).collect();
            proptest::prop_assert_eq!(&got, &want);
            for v in &want {
                let fields: Vec<(u64, Addr)> = refs_of(seg, v).collect();
                proptest::prop_assert_eq!(&fields, &scalar_refs(&mem, v));
                proptest::prop_assert_eq!(&fields, &ref_fields(&mem, v.addr).unwrap());
            }

            // Rewriting: the reference goes object by object, field by field.
            let moved = |t: Addr| if t.0 & 15 == 0 { Addr(t.0 + 8 * shift) } else { t };
            let mut reference = NodeMemory::new(NodeId(0));
            reference.install_segment(seg.clone());
            for v in want.iter().filter(|v| !v.is_forwarded()) {
                for (f, t) in scalar_refs(&mem, v) {
                    if !t.is_null() {
                        write_ref_field(&mut reference, v.addr, f, moved(t)).unwrap();
                    }
                }
            }
            rewrite_refs_in(mem.segment_mut(info.id).unwrap(), moved);
            proptest::prop_assert_eq!(
                &mem.segment(info.id).unwrap().words,
                &reference.segment(info.id).unwrap().words
            );
            // ...and one object at a time.
            for v in want.iter().filter(|v| v.is_forwarded()) {
                rewrite_refs(&mut mem, v.addr, moved).unwrap();
                for (f, t) in scalar_refs(&reference, v) {
                    if !t.is_null() {
                        write_ref_field(&mut reference, v.addr, f, moved(t)).unwrap();
                    }
                }
            }
            proptest::prop_assert_eq!(
                &mem.segment(info.id).unwrap().words,
                &reference.segment(info.id).unwrap().words
            );

            // Copying: staged through reusable buffers vs. through an image.
            let mut srv = SegmentServer::new(128);
            let b = srv.create_bunch(NodeId(0), Protection::default());
            srv.alloc_segment(b).unwrap();
            let to = srv.alloc_segment(b).unwrap();
            mem.map_segment(to);
            reference.map_segment(to);
            let mut buf = CopyBuf::default();
            let mut dst = to.base;
            for v in &want {
                if v.footprint() > to.words - dst.words_from(to.base) {
                    break;
                }
                let img = ObjectImage::capture(&reference, v.addr).unwrap();
                install_object_at(&mut reference, dst, &img).unwrap();
                let src = copy_object(&mut mem, v.addr, dst, &mut buf).unwrap();
                proptest::prop_assert_eq!(src.oid, v.oid);
                dst = dst.add_words(v.footprint());
            }
            let (a, b) = (mem.segment(to.id).unwrap(), reference.segment(to.id).unwrap());
            proptest::prop_assert_eq!(&a.words, &b.words);
            proptest::prop_assert!(a.object_map == b.object_map && a.ref_map == b.ref_map);
            proptest::prop_assert_eq!(a.alloc_cursor, b.alloc_cursor);
        }
    }
}
