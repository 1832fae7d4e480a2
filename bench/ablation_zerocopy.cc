// Ablation: the zero-copy tensor data path (pooled buffers + payload views).
// A 64 MB tensor is pushed through each wire protocol twice — once with the
// classic inline payload (the tensor message serialized into the payload's
// own string) and once with the view payload (tensor bytes ride as a buffer
// reference, wire/payload.h) — and the transport's counted staging traffic
// is reported per step. RDMA forwards the buffer reference (0 payload
// copies); MPI stages the view's content exactly once, into a block the
// server adopts as the tensor; gRPC serializes the envelope into one frame
// and makes one wire copy whichever the payload, and the server parses the
// tensor out of the received frame — Fig. 7's ordering. The rows count
// bytes, not time, so they do not depend on whether a staging block comes
// from the pool or, like the 64 MB frames here (above
// BufferPool::kMaxPooledBytes), bypasses it.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "distrib/server.h"
#include "wire/messages.h"

using namespace tfhpc;

namespace {

struct Row {
  std::string protocol;
  std::string mode;  // "inline" or "view"
  double copied_mb_per_step = 0;
  double serialized_mb_per_step = 0;
  double forwarded_mb_per_step = 0;
  double views_per_step = 0;
};

constexpr double kMb = 1024.0 * 1024.0;

}  // namespace

int main() {
  bench::Header("Ablation — zero-copy payload views (64 MB tensor, VarWrite)",
                "DESIGN.md §9 (paper §VI-A: copy + serialization costs "
                "separate the protocols)");

  wire::ClusterDef def;
  wire::JobDef job;
  job.name = "zc";
  job.task_addrs = {"zc:0"};
  def.jobs = {job};
  auto spec = distrib::ClusterSpec::Create(def).value();
  distrib::InProcessRouter router;
  auto server = distrib::Server::Create({spec, "zc", 0, 0}, &router).value();

  const int64_t n = 16 << 20;  // 16M f32 = 64 MB
  const int rounds = 4;
  Tensor payload(DType::kF32, Shape{n});
  float* data = payload.mutable_data<float>();
  for (int64_t i = 0; i < n; ++i) data[i] = static_cast<float>(i) * 0.5f;
  const double payload_mb = static_cast<double>(payload.bytes()) / kMb;

  struct Proto {
    const char* name;
    distrib::WireProtocol proto;
  };
  const Proto protos[] = {{"gRPC", distrib::WireProtocol::kGrpc},
                          {"MPI", distrib::WireProtocol::kMpi},
                          {"RDMA", distrib::WireProtocol::kRdma}};

  std::vector<Row> rows;
  for (const Proto& p : protos) {
    for (const bool view : {false, true}) {
      router.ResetStats();
      for (int r = 0; r < rounds; ++r) {
        wire::RpcEnvelope req;
        req.method = "VarWrite";
        req.payload = distrib::EncodeVarPayloadView("v", &payload, false, false);
        if (!view) req.payload = wire::PayloadRef(req.payload.Flatten());
        req.checksum = wire::PayloadChecksum(req.payload);
        auto resp = router.Call("zc:0", p.proto, req);
        TFHPC_CHECK(resp.ok()) << resp.status().ToString();
        TFHPC_CHECK(resp->status_code == 0) << resp->status_msg;
      }
      const distrib::TransportStats& st = router.stats(p.proto);
      Row row;
      row.protocol = p.name;
      row.mode = view ? "view" : "inline";
      row.copied_mb_per_step =
          static_cast<double>(st.bytes_copied.load()) / rounds / kMb;
      row.serialized_mb_per_step =
          static_cast<double>(st.bytes_serialized.load()) / rounds / kMb;
      row.forwarded_mb_per_step =
          static_cast<double>(st.bytes_forwarded.load()) / rounds / kMb;
      row.views_per_step =
          static_cast<double>(st.views_forwarded.load()) / rounds;
      rows.push_back(row);
    }
  }

  std::printf("%-8s %-8s %14s %14s %14s %8s\n", "proto", "payload",
              "copied MB/step", "serial MB/step", "fwd MB/step", "views");
  bench::Rule();
  for (const Row& r : rows) {
    std::printf("%-8s %-8s %14.1f %14.1f %14.1f %8.0f\n", r.protocol.c_str(),
                r.mode.c_str(), r.copied_mb_per_step, r.serialized_mb_per_step,
                r.forwarded_mb_per_step, r.views_per_step);
  }
  bench::Rule();

  // The headline claim: switching RDMA to view payloads removes the payload
  // staging copy entirely (>= 2x fewer copied bytes; in practice ~payload/0).
  double rdma_inline = 0, rdma_view = 0;
  for (const Row& r : rows) {
    if (r.protocol == "RDMA" && r.mode == "inline")
      rdma_inline = r.copied_mb_per_step;
    if (r.protocol == "RDMA" && r.mode == "view")
      rdma_view = r.copied_mb_per_step;
  }
  const double reduction =
      rdma_view > 0 ? rdma_inline / rdma_view : rdma_inline / 0.001;
  std::printf("RDMA copied bytes: %.1f MB/step inline -> %.1f MB/step view "
              "(%.0fx reduction; tensor rides as a buffer reference)\n",
              rdma_inline, rdma_view, reduction);
  TFHPC_CHECK(rdma_inline >= 2 * rdma_view + payload_mb / 2)
      << "view payloads should at least halve RDMA staging copies";

  bench::JsonResults json("zerocopy");
  json.Meta("payload_mb", payload_mb)
      .Meta("rounds", static_cast<double>(rounds))
      .Meta("rdma_copy_reduction_x", reduction);
  for (const Row& r : rows) {
    json.Record()
        .Str("protocol", r.protocol)
        .Str("mode", r.mode)
        .Num("copied_mb_per_step", r.copied_mb_per_step)
        .Num("serialized_mb_per_step", r.serialized_mb_per_step)
        .Num("forwarded_mb_per_step", r.forwarded_mb_per_step)
        .Num("views_per_step", r.views_per_step);
  }
  json.WriteFile("BENCH_zerocopy.json");
  return 0;
}
