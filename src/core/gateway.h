// GatewayConsole — the text front-end of paper Sec. 3.1: "The laptop runs
// a Java application that allows a user to interact with the WSN by
// injecting agents and performing remote tuple space operations. It also
// starts an RMI server that allows anyone on the Internet to remotely
// access the sensor network."
//
// We reproduce that interaction surface as a command interpreter over the
// BaseStation API, so a driver program (or a test, or the gateway
// service in src/svc/) can operate the network with plain text:
//
//   inject agent firedetector 1 1
//   inject asm "pushc 1; pushc 1; out; halt"
//   rout 3 1 str:cmd num:7
//   rrdp 3 1 str:dat ?reading
//   region 4 4 1.5 all str:evc num:1
//   subscribe node
//   status
//
// `inject asm` code is a string source, so `.include` is refused (a
// client cannot read host files).
//
// Every executed command gets an id (caller-supplied on the wire surface,
// auto-assigned otherwise) and returns its immediate response text;
// asynchronous results (remote-op replies, remote-injection outcomes)
// reach the AsyncSink as (id, ok, text), tagged with the originating
// command's id.
//
// `subscribe <kind>` / `unsubscribe [<kind>]` bridge an attached
// api::EventBus onto the EventSink, so the text surface and the wire
// surface share one verb set. Kinds: agent, tuple, node, frame, battery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/events.h"
#include "core/injector.h"

namespace agilla::core {

class GatewayConsole {
 public:
  /// Structured async-result sink: `id` is the originating command's id.
  using AsyncSink =
      std::function<void(std::uint64_t id, bool ok, const std::string&)>;
  /// Structured subscription sink: one call per bus record whose kind
  /// this console is subscribed to; `at` is the record's virtual time.
  using EventSink = std::function<void(const std::string& kind,
                                       const std::string&, sim::SimTime at)>;

  explicit GatewayConsole(BaseStation& base);
  ~GatewayConsole();

  // The bus bridge registers `this`; moving would dangle it.
  GatewayConsole(const GatewayConsole&) = delete;
  GatewayConsole& operator=(const GatewayConsole&) = delete;

  /// Makes `subscribe`/`unsubscribe` live by giving the console a bus to
  /// bridge. The bus must outlive the console (or the console must
  /// unsubscribe everything first).
  void attach_bus(api::EventBus& bus);

  void set_async_sink(AsyncSink sink) { async_sink_ = std::move(sink); }
  void set_event_sink(EventSink sink) { event_sink_ = std::move(sink); }

  /// Executes one command line under an auto-assigned command id;
  /// returns the immediate response. Errors are reported in the response
  /// text ("error: ..."), never thrown.
  std::string execute(const std::string& line);

  /// Same, under a caller-chosen id (the wire surface passes the
  /// request id so async results correlate across the connection).
  std::string execute(const std::string& line, std::uint64_t id);

  /// Parses a whitespace-separated field list into a tuple. Field syntax:
  ///   num:<n>  str:<abc>  loc:<x>,<y>  agent:<id>  reading:<sensor>,<v>
  /// Returns false (with *error set) on malformed input.
  static bool parse_tuple(const std::vector<std::string>& tokens,
                          std::size_t first, ts::Tuple* out,
                          std::string* error);

  /// Same, with wildcards allowed: ?num ?str ?loc ?reading ?agent.
  static bool parse_template(const std::vector<std::string>& tokens,
                             std::size_t first, ts::Template* out,
                             std::string* error);

  /// Number of async results delivered so far (for tests).
  [[nodiscard]] std::size_t async_results() const { return async_results_; }

  /// Whether `subscribe <kind>` is in effect; how many kinds are.
  [[nodiscard]] bool subscribed(const std::string& kind) const;
  [[nodiscard]] std::size_t subscription_count() const;

 private:
  class BusBridge;

  std::string cmd_inject(const std::vector<std::string>& tokens,
                         const std::string& raw_line, std::uint64_t id);
  std::string cmd_remote(const std::string& op,
                         const std::vector<std::string>& tokens,
                         std::uint64_t id);
  std::string cmd_region(const std::vector<std::string>& tokens);
  std::string cmd_status() const;
  std::string cmd_subscribe(const std::vector<std::string>& tokens,
                            bool subscribe);
  /// Hands one async result to the AsyncSink, tagged with the
  /// originating command's id.
  void deliver_async(std::uint64_t id, bool ok, const std::string& text);
  /// Hands one subscribed bus record to the EventSink (BusBridge calls
  /// it).
  void deliver_event(const std::string& kind, const std::string& text,
                     sim::SimTime at);

  BaseStation& base_;
  AsyncSink async_sink_;
  EventSink event_sink_;
  api::EventBus* bus_ = nullptr;
  std::unique_ptr<BusBridge> bridge_;
  /// The record kinds of every subscribed console kind: also the bridge's
  /// mask on the bus (empty = not subscribed there).
  sim::EventKindMask subscriptions_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t async_results_ = 0;
  /// Liveness token captured (weakly) by remote-op completions: the
  /// middleware may still hold a completion when this console dies (a
  /// gateway session closing with a rout in flight), so callbacks must
  /// not touch `this` afterwards.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace agilla::core
