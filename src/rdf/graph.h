#ifndef RDFSUM_RDF_GRAPH_H_
#define RDFSUM_RDF_GRAPH_H_

#include <memory>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/vocabulary.h"
#include "util/status.h"

namespace rdfsum {

class DenseGraph;

/// An RDF graph in the paper's triple-based representation G = <D, S, T>
/// (§2.1):
///   - D (data component): all triples that are neither τ nor RDFS,
///   - S (schema component): triples whose property is ≺sc, ≺sp, ←↩d or ↪→r,
///   - T (type component): rdf:type triples.
///
/// Triples are dictionary-encoded; the dictionary is shared (shared_ptr) so
/// a summary can live in the same id space as the graph it summarizes, and
/// so that saturation can add triples without re-interning strings.
///
/// Insertion de-duplicates: a Graph is a *set* of triples.
class Graph {
 public:
  /// Copying a Graph copies the triple storage but shares the dictionary
  /// (and the cached DenseGraph substrate, which is immutable once built).
  Graph(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(const Graph&) = default;
  Graph& operator=(Graph&&) = default;

  /// Creates a graph with a fresh dictionary.
  Graph();

  /// Creates a graph sharing an existing dictionary.
  explicit Graph(std::shared_ptr<Dictionary> dict);

  /// Adds an encoded triple, routing it to the right component.
  /// Returns true iff the triple was not already present.
  bool Add(const Triple& t);

  /// Interns the terms and adds the triple.
  bool AddTerms(const Term& s, const Term& p, const Term& o);

  /// Convenience: adds <s> <p> <o> with all three terms IRIs.
  bool AddIris(std::string_view s, std::string_view p, std::string_view o);

  /// Adds every triple of `other` (which must share this dictionary).
  void AddAll(const Graph& other);

  /// Pre-sizes the triple set for `num_triples` insertions; call before bulk
  /// Add loops to avoid rehashing on the hot path.
  void Reserve(size_t num_triples);

  bool Contains(const Triple& t) const { return all_.Contains(t); }

  /// Number of distinct triples the graph holds before its triple set next
  /// rehashes; never decreases.
  size_t ReservedTriples() const { return all_.capacity(); }

  /// Data component D_G.
  const std::vector<Triple>& data() const { return data_; }
  /// Type component T_G.
  const std::vector<Triple>& types() const { return types_; }
  /// Schema component S_G.
  const std::vector<Triple>& schema() const { return schema_; }

  /// |G|e: total number of (distinct) triples.
  size_t NumTriples() const { return all_.size(); }
  bool Empty() const { return all_.empty(); }

  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }
  std::shared_ptr<Dictionary> dict_ptr() const { return dict_; }
  const Vocabulary& vocab() const { return vocab_; }

  /// Deep copy sharing the same dictionary.
  Graph Clone() const;

  /// The dense-ID substrate (canonical node numbering + CSR adjacency; see
  /// DenseGraph). Built lazily on first call and cached; automatically
  /// rebuilt if triples were added since. NOT thread-safe, even across
  /// const callers (the lazy build mutates the cache): warm the cache with
  /// a single Dense() call before sharing a graph across threads.
  const DenseGraph& Dense() const;

  /// Installs a pre-built substrate for the graph's *current* triples, so
  /// the next Dense() serves it instead of rebuilding. Used by the frozen-
  /// image open path (store::MmapStore::ToGraph), where the substrate was
  /// computed at freeze time and stored in the image; `dense` must be what
  /// DenseGraph(*this) would build — the image reconstruction preserves
  /// insertion order precisely so that this holds. A later mutation
  /// invalidates it like any cached substrate.
  void InstallDense(std::shared_ptr<const DenseGraph> dense) {
    dense_ = std::move(dense);
    dense_built_at_ = all_.size();
  }

  /// Invokes `fn(const Triple&)` for every triple in D, then T, then S.
  template <typename Fn>
  void ForEachTriple(Fn&& fn) const {
    for (const Triple& t : data_) fn(t);
    for (const Triple& t : types_) fn(t);
    for (const Triple& t : schema_) fn(t);
  }

 private:
  /// Flat open-addressing set of triples: linear probing over a power-of-two
  /// slot array kept at most half full, so one triple costs 24–48 bytes and
  /// an insert allocates nothing except when the array doubles. The all-zero
  /// triple marks an empty slot; whether {0,0,0} itself is a member is a
  /// separate flag, so membership is exact for every input. Copying the set
  /// copies one vector.
  class TripleSet {
   public:
    /// Inserts `t`; returns true iff it was not already present.
    bool Insert(const Triple& t);
    bool Contains(const Triple& t) const;

    /// Grows the slot array so `num_triples` members fit without a rehash.
    /// Monotonic: a smaller request than the current capacity is a no-op.
    void Reserve(size_t num_triples);

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Number of members the set holds before its next rehash.
    size_t capacity() const { return slots_.size() / 2; }

   private:
    static bool IsEmptySlot(const Triple& t) {
      return t.s == kInvalidTermId && t.p == kInvalidTermId &&
             t.o == kInvalidTermId;
    }
    /// Index of `t`'s slot, or of the empty slot that ends its probe run.
    /// Requires a non-empty slot array and `t` not all-zero.
    size_t Find(const Triple& t) const;
    void Rehash(size_t num_slots);

    std::vector<Triple> slots_;
    size_t size_ = 0;        // members, the all-zero triple included
    bool has_zero_ = false;  // {0,0,0} is a member (it cannot sit in a slot)
  };

  std::shared_ptr<Dictionary> dict_;
  Vocabulary vocab_;
  std::vector<Triple> data_;
  std::vector<Triple> types_;
  std::vector<Triple> schema_;
  TripleSet all_;

  // Lazily built substrate; shared so copies reuse it until they mutate.
  mutable std::shared_ptr<const DenseGraph> dense_;
  mutable size_t dense_built_at_ = 0;  // all_.size() when dense_ was built
};

/// Verifies the "well-behaved" conditions of §2.1: (i) no class appears in a
/// property position, (ii) classes have no properties besides rdf:type and
/// RDFS ones (i.e. a class node never occurs as subject/object of a data
/// triple). All shipped generators produce well-behaved graphs.
Status CheckWellBehaved(const Graph& g);

}  // namespace rdfsum

#endif  // RDFSUM_RDF_GRAPH_H_
