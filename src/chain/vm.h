// The contract runtime: gas metering, events, revert semantics, and the
// Contract interface native contracts implement. Contracts are deterministic
// C++ objects whose state is snapshot-serialized around every call, so a
// throwing call rolls the contract (and all balance movements) back exactly —
// the behaviour Solidity's revert gives the paper's prototype.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/abi.h"

namespace tradefl::chain {

struct GasSchedule {
  std::uint64_t base_call = 21'000;
  std::uint64_t per_payload_byte = 16;
  std::uint64_t storage_write = 5'000;
  std::uint64_t storage_read = 200;
  std::uint64_t transfer = 9'000;
  std::uint64_t event_emit = 375;
  std::uint64_t compute = 5;  // per arithmetic "step" a contract reports
};

class OutOfGas : public std::runtime_error {
 public:
  OutOfGas() : std::runtime_error("out of gas") {}
};

/// Thrown by contracts to abort with a reason (Solidity's require/revert).
class Revert : public std::runtime_error {
 public:
  explicit Revert(const std::string& reason) : std::runtime_error(reason) {}
};

class GasMeter {
 public:
  GasMeter(std::uint64_t limit, const GasSchedule& schedule)
      : limit_(limit), schedule_(&schedule) {}

  void charge(std::uint64_t amount) {
    used_ += amount;
    if (used_ > limit_) exhausted();
  }
  void charge_storage_write(std::size_t slots = 1) { charge(schedule_->storage_write * slots); }
  void charge_storage_read(std::size_t slots = 1) { charge(schedule_->storage_read * slots); }
  void charge_transfer() { charge(schedule_->transfer); }
  void charge_event() { charge(schedule_->event_emit); }
  void charge_compute(std::size_t steps = 1) { charge(schedule_->compute * steps); }

  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t limit() const { return limit_; }

 private:
  /// Cold path, out of line (vm.cpp): counts chain.gas.exhausted, then throws
  /// OutOfGas. Keeps the inline charge() fast path free of obs includes.
  [[noreturn]] void exhausted() const;

  std::uint64_t limit_;
  std::uint64_t used_ = 0;
  const GasSchedule* schedule_;
};

struct Event {
  Address contract;
  std::string name;
  std::vector<AbiValue> fields;
  std::uint64_t block_index = 0;
};

/// The event's values travel as their ABI encoding (encode_values).
template <class Ar>
void fields(Ar& ar, Event& event) {
  ar(event.contract, event.name, coded(event.fields, encode_values, decode_values),
     event.block_index);
}

/// Host services a contract may use during a call. Implemented by the
/// Blockchain; narrow by design (no arbitrary state access).
class HostInterface {
 public:
  virtual ~HostInterface() = default;

  /// Moves wei out of the CONTRACT's own balance. Throws Revert on
  /// insufficient funds.
  virtual void contract_transfer(const Address& to, Wei amount) = 0;

  /// Balance lookup (read-only).
  [[nodiscard]] virtual Wei balance_of(const Address& account) const = 0;

  virtual void emit_event(std::string name, std::vector<AbiValue> fields) = 0;
};

/// Everything a contract sees about the current call.
struct CallContext {
  Address caller;
  Address self;
  Wei value = 0;            // wei sent along with the call
  std::uint64_t block_index = 0;
  GasMeter* gas = nullptr;
  HostInterface* host = nullptr;
};

class Contract {
 public:
  virtual ~Contract() = default;

  [[nodiscard]] virtual std::string contract_name() const = 0;

  /// Dispatches a method call. Throw Revert to abort with a reason; any other
  /// exception also reverts (reported with the exception message).
  virtual std::vector<AbiValue> call(CallContext& context, const std::string& method,
                                     const std::vector<AbiValue>& args) = 0;

  /// State snapshot used by the runtime to implement revert: save before the
  /// call, load on failure. Must round-trip exactly.
  [[nodiscard]] virtual Bytes save_state() const = 0;
  virtual void load_state(const Bytes& state) = 0;
};

using ContractPtr = std::unique_ptr<Contract>;

}  // namespace tradefl::chain
