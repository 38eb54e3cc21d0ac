#include "rpc/wire.h"

namespace kspdg {

namespace {

/// Sanity caps on decoded element counts: each element is several bytes on
/// the wire, so any count beyond the payload cap is provably corrupt. Using
/// one generous bound keeps the checks simple.
constexpr uint64_t kMaxWireElements = 1ull << 28;

Status CheckCount(uint64_t count, const char* what) {
  if (count > kMaxWireElements) {
    return Status::InvalidArgument(std::string("corrupt payload: ") + what +
                                   " count is implausibly large");
  }
  return Status::OK();
}

void EncodePaths(WireWriter* w, const std::vector<Path>& paths) {
  w->U32(static_cast<uint32_t>(paths.size()));
  for (const Path& p : paths) {
    w->F64(p.distance);
    w->U32(static_cast<uint32_t>(p.vertices.size()));
    for (VertexId v : p.vertices) w->U32(v);
  }
}

Status DecodePaths(WireReader* r, std::vector<Path>* paths) {
  uint32_t count = 0;
  KSPDG_RETURN_NOT_OK(r->U32(&count));
  KSPDG_RETURN_NOT_OK(CheckCount(count, "path"));
  paths->clear();
  paths->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Path p;
    KSPDG_RETURN_NOT_OK(r->F64(&p.distance));
    uint32_t verts = 0;
    KSPDG_RETURN_NOT_OK(r->U32(&verts));
    KSPDG_RETURN_NOT_OK(CheckCount(verts, "vertex"));
    p.vertices.reserve(verts);
    for (uint32_t j = 0; j < verts; ++j) {
      VertexId v = kInvalidVertex;
      KSPDG_RETURN_NOT_OK(r->U32(&v));
      p.vertices.push_back(v);
    }
    paths->push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace

// --- LoadGraph -------------------------------------------------------------

LoadGraphRequest LoadGraphRequest::FromGraph(
    const Graph& graph, ShardId shard_id, uint32_t num_shards,
    const PartitionOptions& partition) {
  LoadGraphRequest req;
  req.shard_id = shard_id;
  req.num_shards = num_shards;
  req.partition = partition;
  req.directed = graph.directed();
  req.num_vertices = graph.NumVertices();
  size_t edges = graph.NumEdges();
  req.edge_u.reserve(edges);
  req.edge_v.reserve(edges);
  req.vfrags_fwd.reserve(edges);
  req.vfrags_bwd.reserve(edges);
  req.weights_fwd.reserve(edges);
  req.weights_bwd.reserve(edges);
  for (EdgeId e = 0; e < edges; ++e) {
    req.edge_u.push_back(graph.EdgeU(e));
    req.edge_v.push_back(graph.EdgeV(e));
    req.vfrags_fwd.push_back(graph.ForwardVfrags(e));
    req.vfrags_bwd.push_back(graph.BackwardVfrags(e));
    req.weights_fwd.push_back(graph.ForwardWeight(e));
    req.weights_bwd.push_back(graph.BackwardWeight(e));
  }
  return req;
}

Result<Graph> LoadGraphRequest::BuildGraph() const {
  size_t edges = edge_u.size();
  if (edge_v.size() != edges || vfrags_fwd.size() != edges ||
      vfrags_bwd.size() != edges || weights_fwd.size() != edges ||
      weights_bwd.size() != edges) {
    return Status::InvalidArgument("graph payload arrays disagree on size");
  }
  Graph graph(num_vertices, directed);
  for (size_t e = 0; e < edges; ++e) {
    VertexId u = edge_u[e];
    VertexId v = edge_v[e];
    if (u >= num_vertices || v >= num_vertices || u == v) {
      return Status::InvalidArgument("graph payload has an invalid edge");
    }
    if (vfrags_fwd[e] == 0 || vfrags_bwd[e] == 0 ||
        (!directed && vfrags_fwd[e] != vfrags_bwd[e])) {
      return Status::InvalidArgument("graph payload has invalid vfrags");
    }
    if (!(weights_fwd[e] > 0) || !(weights_bwd[e] > 0) ||
        (!directed && weights_fwd[e] != weights_bwd[e])) {
      return Status::InvalidArgument("graph payload has invalid weights");
    }
    graph.AddEdge(u, v, vfrags_fwd[e], vfrags_bwd[e]);
    graph.SetWeight({static_cast<EdgeId>(e), weights_fwd[e], weights_bwd[e]});
  }
  return graph;
}

std::string LoadGraphRequest::Encode() const {
  WireWriter w;
  w.U32(shard_id);
  w.U32(num_shards);
  w.U32(replica_id);
  w.U64(base_epoch);
  w.U32(partition.max_vertices);
  w.U8(directed ? 1 : 0);
  w.U64(num_vertices);
  w.U64(edge_u.size());
  for (size_t e = 0; e < edge_u.size(); ++e) {
    w.U32(edge_u[e]);
    w.U32(edge_v[e]);
    w.U64(vfrags_fwd[e]);
    w.U64(vfrags_bwd[e]);
    w.F64(weights_fwd[e]);
    w.F64(weights_bwd[e]);
  }
  return w.Take();
}

Status LoadGraphRequest::Decode(std::string_view payload,
                                LoadGraphRequest* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U32(&out->shard_id));
  KSPDG_RETURN_NOT_OK(r.U32(&out->num_shards));
  KSPDG_RETURN_NOT_OK(r.U32(&out->replica_id));
  KSPDG_RETURN_NOT_OK(r.U64(&out->base_epoch));
  KSPDG_RETURN_NOT_OK(r.U32(&out->partition.max_vertices));
  uint8_t directed = 0;
  KSPDG_RETURN_NOT_OK(r.U8(&directed));
  out->directed = directed != 0;
  KSPDG_RETURN_NOT_OK(r.U64(&out->num_vertices));
  KSPDG_RETURN_NOT_OK(CheckCount(out->num_vertices, "vertex"));
  uint64_t edges = 0;
  KSPDG_RETURN_NOT_OK(r.U64(&edges));
  KSPDG_RETURN_NOT_OK(CheckCount(edges, "edge"));
  out->edge_u.resize(edges);
  out->edge_v.resize(edges);
  out->vfrags_fwd.resize(edges);
  out->vfrags_bwd.resize(edges);
  out->weights_fwd.resize(edges);
  out->weights_bwd.resize(edges);
  for (uint64_t e = 0; e < edges; ++e) {
    KSPDG_RETURN_NOT_OK(r.U32(&out->edge_u[e]));
    KSPDG_RETURN_NOT_OK(r.U32(&out->edge_v[e]));
    KSPDG_RETURN_NOT_OK(r.U64(&out->vfrags_fwd[e]));
    KSPDG_RETURN_NOT_OK(r.U64(&out->vfrags_bwd[e]));
    KSPDG_RETURN_NOT_OK(r.F64(&out->weights_fwd[e]));
    KSPDG_RETURN_NOT_OK(r.F64(&out->weights_bwd[e]));
  }
  return r.ExpectEnd();
}

std::string LoadGraphReply::Encode() const {
  WireWriter w;
  w.U64(subgraphs_owned);
  w.U64(vertices_owned);
  return w.Take();
}

Status LoadGraphReply::Decode(std::string_view payload, LoadGraphReply* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U64(&out->subgraphs_owned));
  KSPDG_RETURN_NOT_OK(r.U64(&out->vertices_owned));
  return r.ExpectEnd();
}

// --- Partials --------------------------------------------------------------

std::string PartialsRequest::Encode() const {
  WireWriter w;
  w.U64(epoch);
  w.U32(x);
  w.U32(y);
  w.U64(depth);
  w.U32(static_cast<uint32_t>(sgids.size()));
  for (SubgraphId sgid : sgids) w.U32(sgid);
  return w.Take();
}

Status PartialsRequest::Decode(std::string_view payload,
                               PartialsRequest* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U64(&out->epoch));
  KSPDG_RETURN_NOT_OK(r.U32(&out->x));
  KSPDG_RETURN_NOT_OK(r.U32(&out->y));
  KSPDG_RETURN_NOT_OK(r.U64(&out->depth));
  uint32_t count = 0;
  KSPDG_RETURN_NOT_OK(r.U32(&count));
  KSPDG_RETURN_NOT_OK(CheckCount(count, "subgraph"));
  out->sgids.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KSPDG_RETURN_NOT_OK(r.U32(&out->sgids[i]));
  }
  return r.ExpectEnd();
}

std::string PartialsReply::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(lists.size()));
  for (const SubgraphPartials& list : lists) {
    w.U32(list.sgid);
    EncodePaths(&w, list.paths);
  }
  return w.Take();
}

Status PartialsReply::Decode(std::string_view payload, PartialsReply* out) {
  WireReader r(payload);
  uint32_t count = 0;
  KSPDG_RETURN_NOT_OK(r.U32(&count));
  KSPDG_RETURN_NOT_OK(CheckCount(count, "partial list"));
  out->lists.clear();
  out->lists.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SubgraphPartials list;
    KSPDG_RETURN_NOT_OK(r.U32(&list.sgid));
    KSPDG_RETURN_NOT_OK(DecodePaths(&r, &list.paths));
    out->lists.push_back(std::move(list));
  }
  return r.ExpectEnd();
}

// --- Epoch advance ---------------------------------------------------------

std::string EpochPrepareRequest::Encode() const {
  WireWriter w;
  w.U64(epoch);
  w.U32(static_cast<uint32_t>(updates.size()));
  for (const WeightUpdate& u : updates) {
    w.U32(u.edge);
    w.F64(u.new_forward);
    w.F64(u.new_backward);
  }
  return w.Take();
}

Status EpochPrepareRequest::Decode(std::string_view payload,
                                   EpochPrepareRequest* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U64(&out->epoch));
  uint32_t count = 0;
  KSPDG_RETURN_NOT_OK(r.U32(&count));
  KSPDG_RETURN_NOT_OK(CheckCount(count, "update"));
  out->updates.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KSPDG_RETURN_NOT_OK(r.U32(&out->updates[i].edge));
    KSPDG_RETURN_NOT_OK(r.F64(&out->updates[i].new_forward));
    KSPDG_RETURN_NOT_OK(r.F64(&out->updates[i].new_backward));
  }
  return r.ExpectEnd();
}

std::string EpochPrepareReply::Encode() const {
  WireWriter w;
  w.U64(epoch);
  w.U64(updates_applied);
  return w.Take();
}

Status EpochPrepareReply::Decode(std::string_view payload,
                                 EpochPrepareReply* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U64(&out->epoch));
  KSPDG_RETURN_NOT_OK(r.U64(&out->updates_applied));
  return r.ExpectEnd();
}

// --- Ping / error ----------------------------------------------------------

std::string PingRequest::Encode() const {
  WireWriter w;
  w.U64(nonce);
  return w.Take();
}

Status PingRequest::Decode(std::string_view payload, PingRequest* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U64(&out->nonce));
  return r.ExpectEnd();
}

std::string PingReply::Encode() const {
  WireWriter w;
  w.U64(nonce);
  w.U64(epoch);
  w.U32(shard_id);
  w.U32(replica_id);
  w.Str(metrics_blob);
  return w.Take();
}

Status PingReply::Decode(std::string_view payload, PingReply* out) {
  WireReader r(payload);
  KSPDG_RETURN_NOT_OK(r.U64(&out->nonce));
  KSPDG_RETURN_NOT_OK(r.U64(&out->epoch));
  KSPDG_RETURN_NOT_OK(r.U32(&out->shard_id));
  KSPDG_RETURN_NOT_OK(r.U32(&out->replica_id));
  KSPDG_RETURN_NOT_OK(r.Str(&out->metrics_blob));
  return r.ExpectEnd();
}

ErrorReply ErrorReply::FromStatus(const Status& status) {
  ErrorReply reply;
  reply.code = status.ok() ? StatusCode::kInternal : status.code();
  reply.message = status.message();
  return reply;
}

Status ErrorReply::ToStatus() const {
  switch (code) {
    case StatusCode::kOk:
      return Status::Internal("worker sent an error reply with an OK code");
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
  }
  return Status::Internal(message);
}

std::string ErrorReply::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(code));
  w.Str(message);
  return w.Take();
}

Status ErrorReply::Decode(std::string_view payload, ErrorReply* out) {
  WireReader r(payload);
  uint8_t code = 0;
  KSPDG_RETURN_NOT_OK(r.U8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("error reply carries an unknown code");
  }
  out->code = static_cast<StatusCode>(code);
  KSPDG_RETURN_NOT_OK(r.Str(&out->message));
  return r.ExpectEnd();
}

}  // namespace kspdg
