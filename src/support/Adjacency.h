//===- support/Adjacency.h - Chunked SoA adjacency lists --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only per-node adjacency lists of (peer, annotation) pairs in
/// structure-of-arrays layout: parallel uint32 arenas carved into
/// fixed-size chunks, with per-node chunk chains. Compared to the
/// vector-of-vector-of-pairs it replaces in the solver, this keeps
/// entries of one list in runs of ChunkCap without a per-node heap
/// allocation, and appends during iteration never invalidate a cursor
/// (cursors hold chunk indices, not pointers, and chunk links are
/// immutable once written).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_ADJACENCY_H
#define RASC_SUPPORT_ADJACENCY_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rasc {

/// Per-node append-only lists of (peer, ann) uint32 pairs.
class AdjacencyLists {
  static constexpr uint32_t InvalidChunk = ~uint32_t(0);

public:
  /// Entries per chunk: one 64-byte cache line holds a chunk's peer
  /// array and its parallel ann array, so walking a list touches one
  /// line per ChunkCap entries. Large enough that chain-walking is
  /// rare for the fat nodes the closure produces, small enough that
  /// 1-degree nodes don't waste much arena.
  static constexpr uint32_t ChunkCap = 8;

  /// One cache line: the peer array and its parallel ann array.
  struct alignas(64) Chunk {
    uint32_t Peers[ChunkCap];
    uint32_t Anns[ChunkCap];
  };

  size_t numNodes() const { return Nodes.size(); }

  /// Grows the node table to at least \p N nodes.
  void ensureNodes(size_t N) {
    if (Nodes.size() < N)
      Nodes.resize(N);
  }

  /// Makes room for \p N chunks (one per list of up to ChunkCap
  /// entries), so a caller that knows roughly how many lists it fills
  /// skips the arena's doublings.
  void reserveChunks(size_t N) {
    Chunks.reserve(N);
    NextChunk.reserve(N);
  }

  uint32_t degree(uint32_t Node) const {
    assert(Node < Nodes.size() && "node out of range");
    return Nodes[Node].Size;
  }

  void append(uint32_t Node, uint32_t Peer, uint32_t Ann) {
    assert(Node < Nodes.size() && "node out of range");
    NodeRef &NR = Nodes[Node];
    uint32_t Off = NR.Size % ChunkCap;
    if (Off == 0) {
      uint32_t C = static_cast<uint32_t>(Chunks.size());
      Chunks.emplace_back();
      NextChunk.push_back(InvalidChunk);
      if (NR.Head == InvalidChunk)
        NR.Head = C;
      else
        NextChunk[NR.Tail] = C;
      NR.Tail = C;
    }
    Chunk &C = Chunks[NR.Tail];
    C.Peers[Off] = Peer;
    C.Anns[Off] = Ann;
    ++NR.Size;
  }

  /// Calls F(Ch, N) for each chunk covering the first \p Limit entries
  /// of a node's list, with the chunk copied to the stack (N <=
  /// ChunkCap valid entries). Chunk granularity lets callers run a
  /// prefetch pass over a whole chunk before acting on its entries.
  /// Safe under append() to any node from inside \p F (the solver's
  /// closure appends while iterating a degree snapshot): entries past
  /// the snapshot are not visited, the stack copy is immune to arena
  /// reallocation, and a chunk's link is read only after the chunk's
  /// entries are exhausted (it is immutable by then — only a tail
  /// chunk's link can still change, and the snapshot bound stops
  /// iteration inside the tail).
  template <typename Fn>
  void forEachChunks(uint32_t Node, uint32_t Limit, Fn &&F) const {
    assert(Node < Nodes.size() && Limit <= Nodes[Node].Size &&
           "iteration bound exceeds list");
    uint32_t Cur = Nodes[Node].Head;
    uint32_t Left = Limit;
    while (Left != 0) {
      Chunk Ch = Chunks[Cur]; // one cache line onto the stack
      uint32_t N = Left < ChunkCap ? Left : ChunkCap;
      F(static_cast<const Chunk &>(Ch), N);
      Left -= N;
      if (Left != 0)
        Cur = NextChunk[Cur]; // fresh load: F may have reallocated
    }
  }

  /// Calls F(Peer, Ann) for the first \p Limit entries of a node's
  /// list; same append-safety as forEachChunks.
  template <typename Fn>
  void forEach(uint32_t Node, uint32_t Limit, Fn &&F) const {
    forEachChunks(Node, Limit, [&](const Chunk &Ch, uint32_t N) {
      for (uint32_t I = 0; I != N; ++I)
        F(Ch.Peers[I], Ch.Anns[I]);
    });
  }

  /// forEach over the entries present at call time.
  template <typename Fn> void forEach(uint32_t Node, Fn &&F) const {
    forEach(Node, degree(Node), static_cast<Fn &&>(F));
  }

  /// Heap bytes held (for the solver's approximate memory budget).
  size_t memoryBytes() const {
    return Nodes.capacity() * sizeof(NodeRef) +
           Chunks.capacity() * sizeof(Chunk) +
           NextChunk.capacity() * sizeof(uint32_t);
  }

private:
  struct NodeRef {
    uint32_t Head = InvalidChunk;
    uint32_t Tail = InvalidChunk;
    uint32_t Size = 0;
  };

  std::vector<NodeRef> Nodes;
  std::vector<Chunk> Chunks;
  std::vector<uint32_t> NextChunk; // per chunk; immutable once non-invalid
};

} // namespace rasc

#endif // RASC_SUPPORT_ADJACENCY_H
