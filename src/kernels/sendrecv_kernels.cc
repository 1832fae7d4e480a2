// _Send/_Recv kernels: keyed tensor exchange through the task's rendezvous.
// _Send with a "target" attribute pushes into a *remote* task's rendezvous
// through the server's wire hook — the cross-task edge TensorFlow's
// partitioner inserts at task boundaries.
#include "kernels/kernel.h"

namespace tfhpc {
namespace {

class SendKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TFHPC_ASSIGN_OR_RETURN(std::string key, ctx->node().AttrString("key"));
    std::string target;
    if (ctx->node().HasAttr("target")) {
      TFHPC_ASSIGN_OR_RETURN(target, ctx->node().AttrString("target"));
    }
    if (target.empty()) {
      return ctx->resources()->rendezvous().Send(key, ctx->input(0));
    }
    const auto& remote = ctx->resources()->remote_send();
    if (!remote) {
      return FailedPrecondition(
          "_Send to '" + target +
          "': this runtime has no wire (not running under a Server)");
    }
    return remote(target, key, ctx->input(0));
  }
};
TFHPC_REGISTER_KERNEL_ALL("_Send", SendKernel);

class RecvKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TFHPC_ASSIGN_OR_RETURN(std::string key, ctx->node().AttrString("key"));
    TFHPC_ASSIGN_OR_RETURN(
        Tensor t, ctx->resources()->rendezvous().Recv(key, ctx->cancellation()));
    ctx->set_output(0, std::move(t));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("_Recv", RecvKernel);

}  // namespace
}  // namespace tfhpc
