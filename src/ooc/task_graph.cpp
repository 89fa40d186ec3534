#include "ooc/task_graph.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/resilience.hpp"

namespace rocqr::ooc {

using sim::Event;

namespace {

const char* stage_name(TaskStage s) {
  switch (s) {
  case TaskStage::MoveIn:
    return "move-in";
  case TaskStage::Compute:
    return "compute";
  case TaskStage::MoveOut:
    return "move-out";
  }
  return "?";
}

[[noreturn]] void wrong_stage(TaskStage stage, const char* op) {
  throw InvalidArgument(std::string("TaskCtx::") + op +
                        " called from a " + stage_name(stage) + " node");
}

} // namespace

// ---------------------------------------------------------------------------
// TaskCtx: thin forwards onto the graph's streams with the cross-cutting
// hooks (retry, ABFT, sync_if) applied at the single site.

void TaskCtx::h2d(std::span<const sim::Device::H2dBatchEntry> es,
                  sim::OpName name) {
  if (stage_ != TaskStage::MoveIn) wrong_stage(stage_, "h2d");
  detail::copy_h2d_retry(g_.dev_, es, g_.in_, name,
                         g_.opts_.transfer_max_attempts,
                         g_.opts_.transfer_backoff_seconds);
  detail::sync_if(g_.dev_, g_.opts_);
}

void TaskCtx::gemm(std::span<const sim::Device::GemmBatchEntry> es,
                   sim::OpName name) {
  if (stage_ != TaskStage::Compute) wrong_stage(stage_, "gemm");
  detail::checked_gemm(g_.dev_, g_.opts_, es, g_.comp_, name);
  detail::sync_if(g_.dev_, g_.opts_);
}

void TaskCtx::trsm(sim::Device::TrsmKind kind, sim::DeviceMatrixRef tri,
                   sim::DeviceMatrixRef b, sim::OpName name) {
  if (stage_ != TaskStage::Compute) wrong_stage(stage_, "trsm");
  g_.dev_.trsm(kind, tri, b, g_.opts_.precision, g_.comp_, name);
  detail::sync_if(g_.dev_, g_.opts_);
}

sim::Stream TaskCtx::stream() const {
  if (stage_ != TaskStage::Compute) wrong_stage(stage_, "stream");
  return g_.comp_;
}

void TaskCtx::d2h(std::span<const sim::Device::D2hBatchEntry> es,
                  sim::OpName name) {
  if (stage_ != TaskStage::MoveOut) wrong_stage(stage_, "d2h");
  detail::copy_d2h_retry(g_.dev_, es, g_.out_, name,
                         g_.opts_.transfer_max_attempts,
                         g_.opts_.transfer_backoff_seconds);
  detail::sync_if(g_.dev_, g_.opts_);
}

Event TaskCtx::emit(sim::HostMutRef dst, sim::DeviceMatrixRef src,
                    sim::OpName name) {
  if (stage_ != TaskStage::Compute) wrong_stage(stage_, "emit");
  Event e = g_.dev_.create_event();
  g_.dev_.record_event(e, g_.comp_);
  g_.dev_.wait_event(g_.out_, e);
  detail::copy_d2h_retry(g_.dev_, dst, src, g_.out_, name,
                         g_.opts_.transfer_max_attempts,
                         g_.opts_.transfer_backoff_seconds);
  detail::sync_if(g_.dev_, g_.opts_);
  return e;
}

void TaskCtx::wait(const Event& e) {
  if (e.valid()) g_.dev_.wait_event(g_.stream_for(stage_), e);
}

sim::Device& TaskCtx::device() { return g_.dev_; }

const OocGemmOptions& TaskCtx::options() const { return g_.opts_; }

// ---------------------------------------------------------------------------

TaskGraph::TaskGraph(sim::Device& dev, const OocGemmOptions& opts,
                     std::string span_name, std::vector<sim::Event> wait_before)
    : dev_(dev), opts_(opts),
      name_(span_name.empty() ? "taskgraph" : span_name),
      window_begin_(dev.trace().size()) {
  if (!span_name.empty()) span_.emplace(dev_, std::move(span_name));
  in_ = dev_.create_stream();
  comp_ = dev_.create_stream();
  out_ = dev_.create_stream();
  for (const Event& e : wait_before) {
    if (e.valid()) dev_.wait_event(in_, e);
  }
  detail::wait_host_inputs(dev_, in_, opts_);
}

TaskGraph::~TaskGraph() {
  if (opts_.plan_log == nullptr || nodes_.empty()) return;
  PlanLog& log = *opts_.plan_log;
  const std::string description = plan_description();
  log.text += name_ + ": ";
  log.text += description.empty() ? "built but never run" : description;
  log.text += "\n";
  log.dot += dot(name_);
}

sim::Stream TaskGraph::stream_for(TaskStage stage) const {
  switch (stage) {
  case TaskStage::MoveIn:
    return in_;
  case TaskStage::Compute:
    return comp_;
  case TaskStage::MoveOut:
    return out_;
  }
  return comp_;
}

std::uint32_t TaskGraph::label_head(std::string head) {
  heads_.push_back(std::move(head));
  return static_cast<std::uint32_t>(heads_.size() - 1);
}

std::string TaskGraph::label_text(const TaskLabel& label) const {
  std::string text = heads_[label.head];
  for (std::uint32_t i = 0; i < label.n_ints; ++i) {
    if (i > 0) text += ',';
    text += std::to_string(label.ints[i]);
  }
  return text;
}

TaskId TaskGraph::add(TaskStage stage, TaskLabel label,
                      std::function<void(TaskCtx&)> body,
                      std::span<const TaskId> deps, std::int64_t priority) {
  const TaskId id = static_cast<TaskId>(nodes_.size());
  for (TaskId d : deps) {
    if (d < 0 || d >= id) {
      throw InvalidArgument("TaskGraph::add: node \"" + label_text(label) +
                            "\" depends on unknown node " +
                            std::to_string(d));
    }
  }
  Node& node = nodes_.emplace_back(stage, label, std::move(body), priority);
  node.n_deps = deps.size();
  if (deps.size() <= 2) {
    std::copy(deps.begin(), deps.end(), node.inline_deps);
  } else {
    node.spill_at = deps_.size();
    deps_.insert(deps_.end(), deps.begin(), deps.end());
  }
  return id;
}

TaskId TaskGraph::add(TaskStage stage, std::string label,
                      std::function<void(TaskCtx&)> body,
                      std::vector<TaskId> deps, std::int64_t priority) {
  return add(stage, TaskLabel(label_head(std::move(label))), std::move(body),
             deps, priority);
}

HazardKey TaskGraph::key(size_t count) {
  const HazardKey first{static_cast<std::uint32_t>(hazards_.size())};
  hazards_.resize(hazards_.size() + count);
  return first;
}

void TaskGraph::reserve_nodes(size_t count) {
  const size_t needed = nodes_.size() + count;
  if (needed <= nodes_.capacity()) return;
  nodes_.reserve(nodes_.empty() ? needed
                                : std::max(needed, 2 * nodes_.capacity()));
}

TaskId TaskGraph::add(TaskStage stage, TaskLabel label,
                      std::function<void(TaskCtx&)> body,
                      std::initializer_list<Access> accesses,
                      std::int64_t priority) {
  derived_.clear();
  implied_by_.clear();
  bool any_implied = false;
  for (const Access& a : accesses) {
    ROCQR_CHECK(a.key.index < hazards_.size(),
                "TaskGraph::add: unknown hazard key");
    const Hazard& h = hazards_[a.key.index];
    // Name each dep once: skip one an earlier access named already, which
    // then keeps it whatever this access would allow.
    const size_t named = derived_.size();
    const auto wait = [&](TaskId d, std::uint32_t implied_by) {
      const auto end = derived_.begin() + static_cast<std::ptrdiff_t>(named);
      const auto it = std::find(derived_.begin(), end, d);
      if (it == end) {
        derived_.push_back(d);
        implied_by_.push_back(implied_by);
      } else {
        implied_by_[static_cast<size_t>(it - derived_.begin())] = kNoKey;
      }
    };
    if (a.write && h.n > 0) {
      for (size_t r = h.at; r < h.at + h.n; ++r) wait(readers_[r], kNoKey);
    } else if (h.writer >= 0) {
      // A read of a key with current readers may find its writer implied.
      const bool may_imply = !a.write && h.n > 0;
      any_implied = any_implied || may_imply;
      wait(h.writer, may_imply ? a.key.index : kNoKey);
    }
  }
  if (any_implied) drop_implied_writers();
  const TaskId id = add(stage, label, std::move(body), derived_, priority);
  for (const Access& a : accesses) {
    Hazard& h = hazards_[a.key.index];
    if (a.write) {
      h.writer = id;
      h.n = 0;
      continue;
    }
    // Drop the readers this node waits on directly: a write that waits this
    // node is ordered after them already.
    for (TaskId d : derived_) {
      if (h.n == 0) break;
      const auto first = readers_.begin() + static_cast<std::ptrdiff_t>(h.at);
      const auto last = first + h.n;
      const auto it = std::lower_bound(first, last, d);
      if (it != last && *it == d) {
        std::copy(it + 1, last, it);
        --h.n;
      }
    }
    if (h.n == h.cap) { // move the list to the end, with twice the room
      const size_t at = readers_.size();
      h.cap = std::max<std::uint32_t>(4, 2 * h.cap);
      readers_.resize(at + h.cap);
      std::copy_n(readers_.begin() + static_cast<std::ptrdiff_t>(h.at), h.n,
                  readers_.begin() + static_cast<std::ptrdiff_t>(at));
      h.at = at;
    }
    readers_[h.at + h.n++] = id;
  }
  return id;
}

bool TaskGraph::is_reader(const Hazard& h, TaskId d) const {
  const auto first = readers_.begin() + static_cast<std::ptrdiff_t>(h.at);
  const auto last = first + h.n;
  return std::binary_search(first, last, d);
}

void TaskGraph::drop_implied_writers() {
  // A read's writer is implied when the node also waits a current reader
  // of that key: every reader since the write waited the writer. Decide
  // every drop against the full list before removing any: a dropped dep's
  // justification is a reader with a larger id, so the chain ends at a
  // kept dep. A candidate that stays tagged with its key is implied.
  for (size_t i = 0; i < derived_.size(); ++i) {
    if (implied_by_[i] == kNoKey) continue;
    const Hazard& h = hazards_[implied_by_[i]];
    const TaskId writer = derived_[i];
    if (std::none_of(derived_.begin(), derived_.end(), [&](TaskId d) {
          return d != writer && is_reader(h, d);
        })) {
      implied_by_[i] = kNoKey;
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < derived_.size(); ++i) {
    if (implied_by_[i] == kNoKey) derived_[kept++] = derived_[i];
  }
  derived_.resize(kept);
}

void TaskGraph::set_input_region(TaskId node, Slab rows, Slab cols) {
  if (node < 0 || node >= static_cast<TaskId>(nodes_.size())) {
    throw InvalidArgument("TaskGraph::set_input_region: unknown node id");
  }
  Node& n = nodes_[static_cast<size_t>(node)];
  if (n.stage != TaskStage::MoveIn) {
    throw InvalidArgument("TaskGraph::set_input_region: node \"" +
                          label_text(n.label) + "\" is not a move-in node");
  }
  n.input_region = std::make_pair(rows, cols);
}

void TaskGraph::enqueue(Node& node) {
  const sim::Stream s = stream_for(node.stage);
  try {
    for (TaskId d : deps_of(node)) {
      const Node& dep = nodes_[static_cast<size_t>(d)];
      // Same-stream dependencies ride the FIFO: the dep's ops were enqueued
      // earlier on this stream, so they execute earlier. Cross-stream (and
      // cross-graph, via TaskCtx::wait) dependencies need the event edge.
      if (dep.stage == node.stage) continue;
      ++counts_.fence_edges;
      if (dep.done.valid()) dev_.wait_event(s, dep.done);
    }
    if (node.input_region) {
      detail::wait_intersecting_regions(dev_, s, opts_,
                                        node.input_region->first,
                                        node.input_region->second);
    }
    if (node.body) {
      TaskCtx ctx(*this, node.stage);
      node.body(ctx);
    }
    node.done = dev_.create_event();
    dev_.record_event(node.done, s);
  } catch (const DeviceLost& e) {
    // Attribute the hard loss to the task that hit it: labels carry the
    // owning job's prefix in batched runs, so serve failover logs can name
    // the victim instead of reporting a bare device failure.
    throw DeviceLost(std::string(e.what()) + " [task \"" +
                     label_text(node.label) + "\"]");
  }
  node.body = nullptr; // enqueued exactly once; free the captures
  node.enqueued = true;
  switch (node.stage) {
  case TaskStage::MoveIn:
    ++counts_.in;
    break;
  case TaskStage::Compute:
    ++counts_.comp;
    break;
  case TaskStage::MoveOut:
    ++counts_.out;
    break;
  }
  counts_.edges += static_cast<index_t>(node.n_deps);
}

void TaskGraph::run() {
  // Deterministic list schedule over the not-yet-enqueued subgraph: Kahn's
  // algorithm with a (priority, id) min-heap as the ready set. Nodes below
  // run_from_ were enqueued by an earlier run(), so only the suffix is
  // solved — a driver that adds thousands of nodes through incremental
  // runs stays linear in total node count, and reuses the scratch buffers.
  const size_t total = nodes_.size();
  const size_t base = run_from_;
  const size_t count = total - base;
  if (count == 0) return;

  // One priority across the suffix: every dep points backward, so the
  // ready heap would pop the smallest unenqueued id each time. Enqueue in
  // id order without building the successor lists.
  const std::int64_t priority = nodes_[base].priority;
  if (std::all_of(nodes_.begin() + static_cast<std::ptrdiff_t>(base),
                  nodes_.end(), [priority](const Node& n) {
                    return n.priority == priority;
                  })) {
    for (size_t i = base; i < total; ++i) {
      if (!nodes_[i].enqueued) enqueue(nodes_[i]);
    }
    run_from_ = total;
    return;
  }

  // CSR successor lists: count each suffix node's successors into
  // succ_begin_[k + 2], prefix-sum, then fill through succ_begin_[k + 1]
  // as a cursor, after which node k's successors are
  // succ_[succ_begin_[k] .. succ_begin_[k + 1]).
  pending_.assign(count, 0);
  succ_begin_.assign(count + 2, 0);
  for (size_t i = base; i < total; ++i) {
    if (nodes_[i].enqueued) continue;
    for (TaskId d : deps_of(nodes_[i])) {
      if (!nodes_[static_cast<size_t>(d)].enqueued) {
        ++pending_[i - base];
        ++succ_begin_[static_cast<size_t>(d) - base + 2];
      }
    }
  }
  for (size_t k = 2; k < count + 2; ++k) succ_begin_[k] += succ_begin_[k - 1];
  succ_.resize(succ_begin_[count + 1]);
  for (size_t i = base; i < total; ++i) {
    if (nodes_[i].enqueued) continue;
    for (TaskId d : deps_of(nodes_[i])) {
      if (!nodes_[static_cast<size_t>(d)].enqueued) {
        succ_[succ_begin_[static_cast<size_t>(d) - base + 1]++] =
            static_cast<TaskId>(i);
      }
    }
  }

  const auto later = std::greater<std::pair<std::int64_t, TaskId>>();
  ready_.clear();
  for (size_t i = base; i < total; ++i) {
    if (!nodes_[i].enqueued && pending_[i - base] == 0) {
      ready_.emplace_back(nodes_[i].priority, static_cast<TaskId>(i));
      std::push_heap(ready_.begin(), ready_.end(), later);
    }
  }

  // Every dep points to an earlier node, so this enqueues the whole suffix.
  while (!ready_.empty()) {
    std::pop_heap(ready_.begin(), ready_.end(), later);
    const TaskId id = ready_.back().second;
    ready_.pop_back();
    enqueue(nodes_[static_cast<size_t>(id)]);
    const size_t k = static_cast<size_t>(id) - base;
    for (size_t e = succ_begin_[k]; e < succ_begin_[k + 1]; ++e) {
      const TaskId s = succ_[e];
      if (--pending_[static_cast<size_t>(s) - base] == 0) {
        ready_.emplace_back(nodes_[static_cast<size_t>(s)].priority, s);
        std::push_heap(ready_.begin(), ready_.end(), later);
      }
    }
  }
  run_from_ = total;
}

std::string TaskGraph::plan_description() const {
  // One cumulative line: incremental runs (checkpoint segments, slab loops
  // and tasks added one at a time) update it instead of appending.
  const Counts& c = counts_;
  const index_t nodes = c.in + c.comp + c.out;
  if (nodes == 0) return {};
  std::string s = "task-graph run: ";
  append_int(s, nodes);
  s += " node(s) (";
  append_int(s, c.in);
  s += " move-in, ";
  append_int(s, c.comp);
  s += " compute, ";
  append_int(s, c.out);
  s += " move-out), ";
  append_int(s, c.edges);
  s += " edge(s), ";
  append_int(s, c.fence_edges);
  s += " fence edge(s)";
  return s;
}

Event TaskGraph::done(TaskId id) const {
  if (id < 0 || id >= static_cast<TaskId>(nodes_.size())) {
    throw InvalidArgument("TaskGraph::done: unknown node id");
  }
  return nodes_[static_cast<size_t>(id)].done;
}

namespace {

std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* dot_shape(TaskStage s) {
  switch (s) {
  case TaskStage::MoveIn:
    return "box";
  case TaskStage::Compute:
    return "ellipse";
  case TaskStage::MoveOut:
    return "box";
  }
  return "box";
}

const char* dot_color(TaskStage s) {
  switch (s) {
  case TaskStage::MoveIn:
    return "lightblue";
  case TaskStage::Compute:
    return "palegreen";
  case TaskStage::MoveOut:
    return "lightsalmon";
  }
  return "white";
}

} // namespace

std::string TaskGraph::dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph \"" << dot_escape(graph_name) << "\" {\n"
     << "  rankdir=LR;\n"
     << "  node [fontname=\"monospace\", style=filled];\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << "  n" << i << " [label=\"" << dot_escape(label_text(n.label))
       << "\\n("
       << stage_name(n.stage) << ")\", shape=" << dot_shape(n.stage)
       << ", fillcolor=" << dot_color(n.stage) << "];\n";
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    for (TaskId d : deps_of(n)) {
      const Node& dep = nodes_[static_cast<size_t>(d)];
      // Solid = a real wait_event fence; dashed = same-stream FIFO order.
      os << "  n" << d << " -> n" << i;
      if (dep.stage == n.stage) os << " [style=dashed]";
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

} // namespace rocqr::ooc
