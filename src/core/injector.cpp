#include "core/injector.h"

namespace agilla::core {

std::optional<AgentId> BaseStation::inject(std::string_view assembly_source) {
  const AssemblyResult result = assemble(assembly_source);
  if (!result.ok()) {
    return std::nullopt;
  }
  return inject_code(result.code);
}

std::optional<AgentId> BaseStation::inject_code(
    std::span<const std::uint8_t> code) {
  return gateway_.inject(code);
}

void BaseStation::inject_at(std::span<const std::uint8_t> code,
                            sim::Location dest,
                            std::function<void(bool)> done) {
  AgentImage image;
  image.agent_id = gateway_.engine().next_id().value;
  image.op = MigrationOp::kWMove;  // fresh agent: starts from pc 0
  image.dest = dest;
  image.code.assign(code.begin(), code.end());
  gateway_.migration().send(std::move(image), std::move(done));
}

void BaseStation::rout(sim::Location dest, const ts::Tuple& tuple,
                       RemoteTsManager::Completion done) {
  gateway_.remote_ts().request_out(dest, tuple, std::move(done));
}

bool BaseStation::out_region(const ts::Tuple& tuple, sim::Location center,
                             double radius, RegionMode mode) {
  return gateway_.region_ops().out_region(tuple, center, radius, mode);
}

void BaseStation::rinp(sim::Location dest, const ts::Template& templ,
                       RemoteTsManager::Completion done) {
  gateway_.remote_ts().request_probe(RemoteOp::kInp, dest, templ,
                                     std::move(done));
}

void BaseStation::rrdp(sim::Location dest, const ts::Template& templ,
                       RemoteTsManager::Completion done) {
  gateway_.remote_ts().request_probe(RemoteOp::kRdp, dest, templ,
                                     std::move(done));
}

}  // namespace agilla::core
