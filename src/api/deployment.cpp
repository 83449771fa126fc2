#include "api/deployment.h"

#include <stdexcept>

#include "api/knob_registry.h"
#include "core/assembler.h"

namespace agilla::api {

Deployment::Deployment(DeploymentOptions options,
                       std::vector<Observer*> observers)
    : options_(options),
      simulator_(options.seed),
      network_(simulator_, sim::ChannelLoss{options.packet_loss,
                                            options.per_byte_loss}),
      bus_(&simulator_) {
  bus_.subscribe(lifecycle_, sim::mask_of(sim::EventKind::kNodeDown,
                                          sim::EventKind::kNodeUp));
  for (Observer* observer : observers) {
    bus_.subscribe(*observer);
  }
  topology_ = sim::make_grid(network_, options_.width, options_.height);

  // Shard the event engine while the world is still inert: every node
  // exists, no node-affine event is scheduled yet.
  network_.configure_shards(options_.sim_shards);

  // The energy subsystem runs only when there is a battery to drain or
  // an LPL schedule to model.
  if (options_.energy.battery_mj > 0.0 || options_.energy.duty.active()) {
    network_.attach_energy(options_.energy);
    // LPL stretches every frame by one preamble extension; the per-hop
    // and end-to-end timers must absorb a data frame plus its ack, or
    // every exchange degenerates into retransmissions. Under adaptive
    // LPL the bound is the controller's duty floor.
    const sim::SimTime ext =
        network_.duty_cycler().max_preamble_extension();
    if (ext > 0) {
      options_.config.link.ack_timeout += 2 * ext;
      options_.config.migration.receiver_abort += 4 * ext;
      options_.config.remote_ts.reply_timeout += 4 * ext;
    }
  }

  motes_.reserve(topology_.nodes.size());
  for (const sim::NodeId id : topology_.nodes) {
    motes_.push_back(std::make_unique<core::AgillaMiddleware>(
        network_, id, &environment_, options_.config));
    motes_.back()->start();
  }

  // Node lifecycle: deaths tear the mote's middleware down through the
  // same path the failure-injection tests use; reboots bring it back
  // with empty RAM. The death log reads the network's kNodeDown/kNodeUp
  // records off the bus (lifecycle_).
  network_.set_node_down_handler(
      [this](sim::NodeId id, sim::NodeDownReason /*reason*/) {
        motes_.at(id.value)->power_down();
      });
  network_.set_node_up_handler(
      [this](sim::NodeId id) { motes_.at(id.value)->power_up(); });
  network_.enable_churn(options_.churn,
                        /*spare_gateway=*/options_.energy.gateway_powered);

  if (options_.warmup > 0) {
    simulator_.run_for(options_.warmup);
  }
}

std::optional<core::AgentId> Deployment::inject_file(
    const std::string& path, std::size_t mote_index) {
  core::AssemblyResult assembled = core::assemble_file(path);
  if (!assembled.ok()) {
    throw std::runtime_error("inject_file(" + path + ") failed:\n" +
                             assembled.error_text());
  }
  return motes_.at(mote_index)->inject(assembled.code);
}

core::AgillaMiddleware& Deployment::mote_at(double x, double y) {
  return *motes_.at(
      sim::nearest_node(network_, topology_, sim::Location{x, y}).value);
}

void Deployment::clear_all_stores() {
  for (const auto& mote : motes_) {
    mote->tuple_space().store().clear();
  }
}

std::optional<sim::SimTime> Deployment::await_tuple(
    core::AgillaMiddleware& mote, const ts::Template& templ,
    sim::SimTime timeout, sim::SimTime poll_step) {
  const ts::CompiledTemplate compiled(templ);  // one compile, many polls
  const sim::SimTime deadline = simulator_.now() + timeout;
  while (simulator_.now() < deadline) {
    if (mote.tuple_space().rdp(compiled).has_value()) {
      return simulator_.now();
    }
    simulator_.run_for(poll_step);
  }
  return std::nullopt;
}

std::size_t Deployment::motes_matching(const ts::Template& templ) const {
  const ts::CompiledTemplate compiled(templ);  // one compile, every mote
  std::size_t count = 0;
  for (const auto& mote : motes_) {
    if (mote->tuple_space().rdp(compiled).has_value()) {
      ++count;
    }
  }
  return count;
}

std::size_t Deployment::tuples_matching(const ts::Template& templ) const {
  const ts::CompiledTemplate compiled(templ);  // one compile, every mote
  std::size_t count = 0;
  for (const auto& mote : motes_) {
    count += mote->tuple_space().tcount(compiled);
  }
  return count;
}

std::size_t Deployment::agent_count() const {
  std::size_t count = 0;
  for (const auto& mote : motes_) {
    count += mote->agents().count();
  }
  return count;
}

void Deployment::LifecycleLog::on_event(const sim::Event& event) {
  if (event.kind == sim::EventKind::kNodeDown) {
    deaths.push_back(DeathEvent{event.node, event.at, event.down});
  } else {
    ++reboots;
  }
}

double Deployment::total_drained_mj(energy::EnergyComponent component) {
  network_.settle_batteries();
  double total = 0.0;
  for (const sim::NodeId id : topology_.nodes) {
    if (const energy::Battery* battery = network_.battery(id);
        battery != nullptr) {
      total += battery->drained_mj(component);
    }
  }
  return total;
}

// ----------------------------------------------------- SimulationBuilder

SimulationBuilder& SimulationBuilder::grid(std::size_t width,
                                           std::size_t height) {
  options_.width = width;
  options_.height = height;
  return *this;
}

SimulationBuilder& SimulationBuilder::packet_loss(double loss) {
  options_.packet_loss = loss;
  return *this;
}

SimulationBuilder& SimulationBuilder::per_byte_loss(double loss) {
  options_.per_byte_loss = loss;
  return *this;
}

SimulationBuilder& SimulationBuilder::seed(std::uint64_t seed) {
  options_.seed = seed;
  return *this;
}

SimulationBuilder& SimulationBuilder::warmup(sim::SimTime duration) {
  options_.warmup = duration;
  return *this;
}

SimulationBuilder& SimulationBuilder::config(
    const core::AgillaConfig& config) {
  options_.config = config;
  return *this;
}

SimulationBuilder& SimulationBuilder::set(std::string_view name,
                                          double value) {
  const KnobInfo* knob = find_knob(name);
  if (knob == nullptr) {
    throw std::invalid_argument("unknown knob: " + std::string(name));
  }
  if (const std::string error = validate_knob(*knob, value);
      !error.empty()) {
    throw std::invalid_argument(error);
  }
  if (knob->apply != nullptr) {
    knob->apply(options_, value);
  } else {
    params_[std::string(name)] = value;
  }
  return *this;
}

double SimulationBuilder::knob(std::string_view name) const {
  const KnobInfo* knob = find_knob(name);
  if (knob == nullptr) {
    throw std::invalid_argument("unknown knob: " + std::string(name));
  }
  if (knob->read != nullptr) {
    return knob->read(options_);
  }
  const auto it = params_.find(std::string(name));
  return it == params_.end() ? knob->def : it->second;
}

SimulationBuilder& SimulationBuilder::observe(Observer& observer) {
  observers_.push_back(&observer);
  return *this;
}

std::unique_ptr<Deployment> SimulationBuilder::build() const {
  return std::make_unique<Deployment>(options_, observers_);
}

}  // namespace agilla::api
