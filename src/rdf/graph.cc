#include "rdf/graph.h"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <utility>

#include "rdf/dense_graph.h"

namespace rdfsum {

bool Graph::TripleSet::Insert(const Triple& t) {
  if (IsEmptySlot(t)) {
    if (has_zero_) return false;
    has_zero_ = true;
    ++size_;
    return true;
  }
  const size_t stored = size_ - (has_zero_ ? 1 : 0);
  if (slots_.empty()) Rehash(16);
  size_t i = Find(t);
  if (!IsEmptySlot(slots_[i])) return false;
  if ((stored + 1) * 2 > slots_.size()) {
    Rehash(slots_.size() * 2);
    i = Find(t);
  }
  slots_[i] = t;
  ++size_;
  return true;
}

bool Graph::TripleSet::Contains(const Triple& t) const {
  if (IsEmptySlot(t)) return has_zero_;
  if (slots_.empty()) return false;
  return !IsEmptySlot(slots_[Find(t)]);
}

size_t Graph::TripleSet::Find(const Triple& t) const {
  const size_t mask = slots_.size() - 1;
  size_t i = TripleHash{}(t) & mask;
  while (!IsEmptySlot(slots_[i]) && !(slots_[i] == t)) i = (i + 1) & mask;
  return i;
}

void Graph::TripleSet::Reserve(size_t num_triples) {
  const size_t want = std::bit_ceil(std::max<size_t>(num_triples * 2, 16));
  if (want > slots_.size()) Rehash(want);
}

void Graph::TripleSet::Rehash(size_t num_slots) {
  std::vector<Triple> old =
      std::exchange(slots_, std::vector<Triple>(num_slots));
  for (const Triple& t : old) {
    if (!IsEmptySlot(t)) slots_[Find(t)] = t;
  }
}

Graph::Graph() : dict_(std::make_shared<Dictionary>()), vocab_(*dict_) {}

Graph::Graph(std::shared_ptr<Dictionary> dict)
    : dict_(std::move(dict)), vocab_(*dict_) {}

bool Graph::Add(const Triple& t) {
  if (!all_.Insert(t)) return false;
  if (vocab_.IsType(t.p)) {
    types_.push_back(t);
  } else if (vocab_.IsSchemaProperty(t.p)) {
    schema_.push_back(t);
  } else {
    data_.push_back(t);
  }
  return true;
}

bool Graph::AddTerms(const Term& s, const Term& p, const Term& o) {
  return Add(Triple{dict_->Encode(s), dict_->Encode(p), dict_->Encode(o)});
}

bool Graph::AddIris(std::string_view s, std::string_view p,
                    std::string_view o) {
  return AddTerms(Term::Iri(s), Term::Iri(p), Term::Iri(o));
}

void Graph::AddAll(const Graph& other) {
  Reserve(all_.size() + other.NumTriples());
  other.ForEachTriple([this](const Triple& t) { Add(t); });
}

void Graph::Reserve(size_t num_triples) {
  // Monotonic, so a bulk pre-reserve survives a later small ParseString.
  all_.Reserve(num_triples);
}

const DenseGraph& Graph::Dense() const {
  if (!dense_ || dense_built_at_ != all_.size()) {
    dense_ = std::make_shared<const DenseGraph>(*this);
    dense_built_at_ = all_.size();
  }
  return *dense_;
}

Graph Graph::Clone() const {
  Graph out(dict_);
  out.data_ = data_;
  out.types_ = types_;
  out.schema_ = schema_;
  out.all_ = all_;
  return out;
}

Status CheckWellBehaved(const Graph& g) {
  std::unordered_set<TermId> classes;
  for (const Triple& t : g.types()) classes.insert(t.o);
  for (const Triple& t : g.schema()) {
    if (t.p == g.vocab().subclass) {
      classes.insert(t.s);
      classes.insert(t.o);
    }
  }
  for (const Triple& t : g.data()) {
    if (classes.count(t.p)) {
      return Status::InvalidArgument(
          "class used in property position: " +
          g.dict().Decode(t.p).ToNTriples());
    }
    if (classes.count(t.s)) {
      return Status::InvalidArgument(
          "class has a non-RDFS property: " +
          g.dict().Decode(t.s).ToNTriples());
    }
    if (classes.count(t.o)) {
      return Status::InvalidArgument(
          "class appears as data object: " +
          g.dict().Decode(t.o).ToNTriples());
    }
  }
  for (const Triple& t : g.types()) {
    if (classes.count(t.s)) {
      return Status::InvalidArgument(
          "class has an rdf:type edge: " + g.dict().Decode(t.s).ToNTriples());
    }
  }
  return Status::OK();
}

}  // namespace rdfsum
