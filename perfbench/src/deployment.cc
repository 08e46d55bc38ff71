#include "deployment.h"

#include "common/error.h"
#include "net/handshake.h"

namespace perfbench {

using namespace speed;

Deployment::Deployment(const DeploymentSpec& spec) {
  platform_ = std::make_unique<sgx::Platform>(sgx::CostModel{},
                                              as_bytes(spec.platform_seed));
  store::StoreConfig cfg = spec.store;
  std::shared_ptr<store::BlobBackend> backend =
      spec.backend ? spec.backend : std::make_shared<store::MemoryBackend>();
  if (spec.traced) backend = std::make_shared<TracedBackend>(std::move(backend));
  cfg.backend = std::move(backend);
  store_ = std::make_unique<store::ResultStore>(*platform_, cfg);
  server_ = std::make_unique<store::StoreTcpServer>(*store_);

  for (std::size_t i = 0; i < spec.apps; ++i) {
    App app;
    app.enclave = platform_->create_enclave("perfbench-app-" + std::to_string(i));
    store::TcpAppConnection conn = store::connect_tcp_app(
        *app.enclave, store_->enclave().measurement(), "127.0.0.1",
        server_->port());
    if (spec.runtime.batching.enabled &&
        conn.protocol_version < net::kProtocolVersionBatch) {
      throw Error("perfbench: store did not negotiate batch frames");
    }
    std::unique_ptr<net::Transport> transport = std::move(conn.transport);
    if (spec.traced) {
      transport = std::make_unique<TracedTransport>(std::move(transport), wire_);
    }
    app.rt = std::make_unique<runtime::DedupRuntime>(
        *app.enclave, std::move(conn.session_key), std::move(transport),
        spec.runtime);
    app.rt->libraries().register_library(kLibFamily, kLibVersion,
                                         as_bytes(kLibCode));
    apps_.push_back(std::move(app));
  }
}

bool Deployment::flush_all() {
  bool ok = true;
  for (App& app : apps_) ok = app.rt->flush(30000) && ok;
  return ok;
}

mle::FunctionIdentity app_function(const char* signature) {
  sgx::TrustedLibraryRegistry libs;
  libs.register_library(kLibFamily, kLibVersion, as_bytes(kLibCode));
  return mle::FunctionIdentity{{kLibFamily, kLibVersion, signature},
                               *libs.lookup(kLibFamily, kLibVersion)};
}

}  // namespace perfbench
