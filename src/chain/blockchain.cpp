#include "chain/blockchain.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/journal.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "obs/obs.h"

namespace tradefl::chain {
namespace {

// WAL record framing: [u32 magic "TFWL"] [u32 payload length] [payload]
// [u32 CRC32(payload)]. One record per sealed block, appended and flushed
// before seal_block returns.
constexpr std::uint32_t kWalMagic = 0x4C575446u;  // "TFWL" little-endian
constexpr std::size_t kWalFrameOverhead = 4 + 4 + 4;
// v2: transactions carry the mempool priority fee.
constexpr std::uint32_t kChainStateVersion = 2;
// Snapshot-file framing for save_snapshot / snapshot_sync; the payload embeds
// its own kChainStateVersion on top.
constexpr char kChainSnapshotKind[] = "chain.state";
constexpr std::uint32_t kChainSnapshotVersion = 1;

using BalanceJournal = MapUndoJournal<std::map<Address, Wei>>;

Bytes serialize_block(const Block& block) {
  ByteWriter writer;
  writer(block);
  return writer.release();
}

Block decode_block(const Bytes& payload) {
  ByteReader reader(payload);
  Block block;
  reader(block);
  if (!reader.exhausted()) throw std::invalid_argument("chain: trailing bytes in block record");
  return block;
}

/// What save_chain_state persists: the chain minus its derived indexes and
/// the unsealed mempool. Contracts travel as (factory name, save_state
/// bytes) and blocks as serialize_block blobs. Saving points the references
/// at the chain's own members, so nothing is copied; a restore points them
/// at locals and decodes all of it before it instantiates a contract or
/// touches the chain.
struct ChainState {
  std::map<Address, Wei>& balances;
  std::map<Address, std::pair<std::string, Bytes>>& contracts;
  std::map<Address, std::uint64_t>& nonces;
  std::vector<Bytes>& blocks;
  std::vector<Receipt>& receipts;
  std::vector<Event>& events;
  std::uint64_t& deploy_nonce;
  std::uint64_t& logical_clock;
};

template <class Ar>
void fields(Ar& ar, ChainState& state) {
  ar(state.balances, state.contracts, state.nonces, state.blocks, state.receipts, state.events,
     state.deploy_nonce, state.logical_clock);
}

void append_u32_le(Bytes& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFFu));
  }
}

Bytes frame_wal_record(const Block& block) {
  const Bytes payload = serialize_block(block);
  Bytes frame;
  append_u32_le(frame, kWalMagic);
  append_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  append_u32_le(frame, crc32(payload.data(), payload.size()));
  return frame;
}

std::uint32_t read_u32_le(const Bytes& raw, std::size_t offset) {
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(raw[offset++]) << shift;
  }
  return value;
}

std::uint64_t read_u64_le(const Bytes& raw, std::size_t offset) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(raw[offset++]) << shift;
  }
  return value;
}

/// CRC-validated bounds of the frame at `offset` — everything except the
/// block decode, so snapshot-synced boots can skip already-covered records
/// after an integrity check without paying for deserialization.
struct WalFrame {
  std::size_t payload_at = 0;
  std::uint32_t length = 0;
  std::size_t end = 0;  // first byte past the frame
};

bool frame_bounds(const Bytes& raw, std::size_t offset, WalFrame& frame) {
  if (raw.size() - offset < kWalFrameOverhead) return false;
  if (read_u32_le(raw, offset) != kWalMagic) return false;
  const std::uint32_t length = read_u32_le(raw, offset + 4);
  if (raw.size() - offset - kWalFrameOverhead < length) return false;
  const std::size_t payload_at = offset + 8;
  if (crc32(raw.data() + payload_at, length) != read_u32_le(raw, payload_at + length)) {
    return false;
  }
  frame.payload_at = payload_at;
  frame.length = length;
  frame.end = payload_at + length + 4;
  return true;
}

/// Tries to parse one CRC-valid, decodable WAL frame at `offset`. Returns the
/// block and advances `offset` past the frame on success.
bool parse_wal_frame(const Bytes& raw, std::size_t& offset, Block& block) {
  WalFrame frame;
  if (!frame_bounds(raw, offset, frame)) return false;
  try {
    block = decode_block(
        Bytes(raw.begin() + static_cast<std::ptrdiff_t>(frame.payload_at),
              raw.begin() + static_cast<std::ptrdiff_t>(frame.payload_at + frame.length)));
  } catch (const std::exception&) {
    return false;
  }
  offset = frame.end;
  return true;
}

/// Evidence probe for mid-log corruption: is there ANY complete valid frame
/// at or after `from`? A torn tail (crash mid-append) can never contain one;
/// a flipped byte in the middle of the log always leaves the later,
/// fully-committed records intact and findable.
bool valid_frame_exists_after(const Bytes& raw, std::size_t from) {
  for (std::size_t offset = from; offset + kWalFrameOverhead <= raw.size(); ++offset) {
    std::size_t probe = offset;
    Block ignored;
    if (parse_wal_frame(raw, probe, ignored)) return true;
  }
  return false;
}

Status write_file_bytes(const std::string& path, const Bytes& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Error{"io", "cannot open " + path + " for writing"};
  const std::size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    return Error{"io", "write failed for " + path};
  }
  return ok_status();
}

Result<Bytes> read_file_bytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Error{"io", "cannot open " + path + " for reading"};
  Bytes raw;
  std::uint8_t chunk[4096];
  std::size_t read = 0;
  while ((read = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    raw.insert(raw.end(), chunk, chunk + read);
  }
  const bool clean = std::ferror(file) == 0;
  std::fclose(file);
  if (!clean) return Error{"io", "read failed for " + path};
  return raw;
}

}  // namespace

std::size_t Blockchain::TxHashKey::operator()(const Hash256& hash) const noexcept {
  std::size_t value = 0;
  std::memcpy(&value, hash.data(), sizeof value);
  return value;
}

/// Host implementation bound to one in-flight call: restricts transfers to
/// the callee contract's own funds, stamps events with the block index, and
/// journals every balance it is about to touch so a revert can undo exactly
/// those entries.
class Blockchain::HostSession final : public HostInterface {
 public:
  HostSession(Blockchain& chain, Address self, GasMeter& gas, std::uint64_t block_index,
              BalanceJournal& journal)
      : chain_(chain), self_(self), gas_(gas), block_index_(block_index), journal_(journal) {}

  void contract_transfer(const Address& to, Wei amount) override {
    gas_.charge_transfer();
    if (amount < 0) throw Revert("negative transfer");
    journal_.note(chain_.balances_, self_);
    Wei& from_balance = chain_.balances_[self_];
    if (from_balance < amount) throw Revert("insufficient contract balance");
    journal_.note(chain_.balances_, to);
    from_balance -= amount;
    chain_.balances_[to] += amount;
  }

  [[nodiscard]] Wei balance_of(const Address& account) const override {
    gas_.charge_storage_read();
    return chain_.balance(account);
  }

  void emit_event(std::string name, std::vector<AbiValue> fields) override {
    gas_.charge_event();
    staged_events_.push_back(Event{self_, std::move(name), std::move(fields), block_index_});
  }

  /// Events only reach the chain log if the call succeeds.
  void commit_events() {
    for (Event& event : staged_events_) chain_.events_.push_back(std::move(event));
    staged_events_.clear();
  }

 private:
  Blockchain& chain_;
  Address self_;
  GasMeter& gas_;
  std::uint64_t block_index_;
  BalanceJournal& journal_;
  std::vector<Event> staged_events_;
};

Blockchain::Blockchain(GasSchedule gas_schedule) : gas_schedule_(gas_schedule) {
  // Genesis block.
  Block genesis;
  genesis.header.index = 0;
  genesis.header.timestamp = logical_clock_++;
  genesis.header.tx_root = Block::merkle_root(genesis.transactions);
  header_hashes_.push_back(genesis.header.hash());
  blocks_.push_back(std::move(genesis));
}

Blockchain::~Blockchain() { detach_wal(); }

void Blockchain::detach_wal() {
  if (wal_file_ != nullptr) {
    std::fclose(wal_file_);
    wal_file_ = nullptr;
  }
  wal_path_.clear();
}

Status Blockchain::open_wal_handle(const std::string& path) {
  detach_wal();
  wal_file_ = std::fopen(path.c_str(), "ab");
  if (wal_file_ == nullptr) return Error{"io", "cannot open " + path + " for append"};
  wal_path_ = path;
  return ok_status();
}

void Blockchain::rebuild_indexes() {
  receipt_index_.clear();
  receipt_index_.reserve(receipts_.size());
  for (std::size_t i = 0; i < receipts_.size(); ++i) {
    receipt_index_.emplace(receipts_[i].tx_hash, i);
  }
  header_hashes_.clear();
  header_hashes_.reserve(blocks_.size());
  for (const Block& block : blocks_) header_hashes_.push_back(block.header.hash());
}

void Blockchain::credit(const Address& account, Wei amount) {
  if (amount < 0) throw std::invalid_argument("chain: cannot credit negative wei");
  balances_[account] += amount;
}

Wei Blockchain::balance(const Address& account) const {
  const auto it = balances_.find(account);
  return it == balances_.end() ? 0 : it->second;
}

Address Blockchain::deploy(ContractPtr contract) {
  if (!contract) throw std::invalid_argument("chain: null contract");
  const std::string salt =
      contract->contract_name() + "#" + std::to_string(deploy_nonce_++);
  const Address address = Address::from_name(salt);
  if (contracts_.count(address) > 0) throw std::logic_error("chain: address collision");
  TFL_DEBUG << "deploy " << contract->contract_name() << " at " << address.to_hex();
  contracts_[address] = std::move(contract);
  return address;
}

bool Blockchain::has_contract(const Address& address) const {
  return contracts_.count(address) > 0;
}

const Contract& Blockchain::contract_at(const Address& address) const {
  const auto it = contracts_.find(address);
  if (it == contracts_.end()) throw std::out_of_range("chain: no contract at address");
  return *it->second;
}

Receipt Blockchain::submit(Transaction tx) {
  TFL_SPAN("chain.submit");
  tx.nonce = nonces_[tx.from]++;
  Receipt receipt;
  receipt.tx_hash = tx.hash();
  receipt.block_index = blocks_.size();  // the block it will be sealed into

  GasMeter gas(tx.gas_limit, gas_schedule_);
  const auto contract_it = contracts_.find(tx.to);

  // Atomic rollback in O(touched): the journal records each balance entry on
  // first touch (including entries the transaction creates, which revert
  // erases again) and the contract state is captured copy-on-first-write —
  // only once a contract call is actually about to run. Nonce consumption
  // deliberately survives a revert (replay protection, as on Ethereum), so
  // nonces_ is never journaled.
  BalanceJournal journal;
  Bytes state_snapshot;
  bool state_captured = false;

  try {
    gas.charge(gas_schedule_.base_call);
    gas.charge(gas_schedule_.per_payload_byte * tx.data.size());

    // Up-front value transfer (to a contract or an externally owned account).
    if (tx.value < 0) throw Revert("negative value");
    journal.note(balances_, tx.from);
    Wei& sender_balance = balances_[tx.from];
    if (sender_balance < tx.value) throw Revert("insufficient sender balance");
    journal.note(balances_, tx.to);
    sender_balance -= tx.value;
    balances_[tx.to] += tx.value;

    if (contract_it != contracts_.end()) {
      TFL_SCOPED_TIMER("chain.call.seconds");
      state_snapshot = contract_it->second->save_state();
      state_captured = true;
      HostSession host(*this, tx.to, gas, receipt.block_index, journal);
      CallContext context;
      context.caller = tx.from;
      context.self = tx.to;
      context.value = tx.value;
      context.block_index = receipt.block_index;
      context.gas = &gas;
      context.host = &host;
      const CallPayload payload = decode_call(tx.data);
      const std::vector<AbiValue> returned =
          contract_it->second->call(context, payload.method, payload.args);
      receipt.return_data = encode_values(returned);
      host.commit_events();
    } else if (!tx.data.empty()) {
      throw Revert("call data sent to a non-contract account");
    }
    receipt.success = true;
  } catch (const std::exception& error) {
    journal.revert(balances_);
    if (state_captured) contract_it->second->load_state(state_snapshot);
    receipt.success = false;
    receipt.revert_reason = error.what();
  }

  receipt.gas_used = gas.used();
  TFL_COUNTER_INC("chain.tx.count");
  if (!receipt.success) TFL_COUNTER_INC("chain.tx.reverted");
  TFL_COUNTER_ADD("chain.gas.used", receipt.gas_used);
  TFL_OBSERVE_BUCKETS("chain.call.gas", static_cast<double>(receipt.gas_used), 25e3, 50e3,
                      100e3, 250e3, 500e3, 1e6, 5e6);
  receipt_index_.emplace(receipt.tx_hash, receipts_.size());
  receipts_.push_back(receipt);
  mempool_.add(std::move(tx), receipt.tx_hash);
  TFL_GAUGE_SET("chain.mempool.depth", static_cast<double>(mempool_.size()));
  if (seal_every_ > 0 && mempool_.size() >= seal_every_) seal_block();
  return receipt;
}

std::uint64_t Blockchain::seal_block() {
  std::vector<PendingTx> drained = mempool_.drain();
  TFL_GAUGE_SET("chain.mempool.depth", 0.0);
  TFL_OBSERVE_BUCKETS("chain.seal.batch_size", static_cast<double>(drained.size()), 1, 8, 32,
                      128, 512, 2048);
  Block block;
  block.header.index = blocks_.size();
  block.header.timestamp = logical_clock_++;
  block.header.prev_hash = header_hashes_.back();
  std::vector<Hash256> leaves;
  leaves.reserve(drained.size());
  block.transactions.reserve(drained.size());
  for (PendingTx& entry : drained) {
    leaves.push_back(entry.hash);
    block.transactions.push_back(std::move(entry.tx));
  }
  block.header.tx_root = Block::merkle_root_of_leaves(std::move(leaves));
  header_hashes_.push_back(block.header.hash());
  blocks_.push_back(std::move(block));
  TFL_COUNTER_INC("chain.block.count");
  if (wal_file_ != nullptr) {
    // Write-ahead durability: the record is on disk (flushed through the
    // persistent handle) before the seal returns. A failed append is a
    // broken durability promise — fatal, not a degradation.
    const Bytes frame = frame_wal_record(blocks_.back());
    const std::size_t written = std::fwrite(frame.data(), 1, frame.size(), wal_file_);
    if (written != frame.size() || std::fflush(wal_file_) != 0) {
      throw std::runtime_error("chain: WAL append failed for " + wal_path_);
    }
    TFL_COUNTER_INC("chain.wal.appends");
  }
  return blocks_.back().header.index;
}

std::optional<Receipt> Blockchain::receipt_for(const Hash256& tx_hash) const {
  const auto it = receipt_index_.find(tx_hash);
  if (it == receipt_index_.end()) return std::nullopt;
  return receipts_[it->second];
}

ChainValidation Blockchain::validate() const {
  TFL_LATENCY_TIMER("chain.validate.seconds");
  const std::size_t count = blocks_.size();
  // Per-block re-hash + Merkle recompute fan out over the shared pool into
  // disjoint slots; the verdict folds serially in block order below, so the
  // result (and the reported first problem) is bit-identical for any thread
  // count — the PR 3 determinism contract. The prev-hash link check needs
  // the neighbour's re-hashed header, so it lives in the serial fold.
  std::vector<std::string> problems(count);
  std::vector<Hash256> rehashed(count);
  parallel_for(global_pool(), 0, count, 64,
               [&](std::size_t lo, std::size_t hi, std::size_t /*worker*/) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   const Block& checked = blocks_[i];
                   rehashed[i] = checked.header.hash();
                   if (checked.header.index != i) {
                     problems[i] = "block " + std::to_string(i) + ": wrong index";
                   } else if (!checked.verify_tx_root()) {
                     problems[i] = "block " + std::to_string(i) + ": Merkle root mismatch";
                   }
                 }
               });
  for (std::size_t i = 0; i < count; ++i) {
    if (!problems[i].empty()) return {false, problems[i]};
    if (i > 0 && blocks_[i].header.prev_hash != rehashed[i - 1]) {
      return {false, "block " + std::to_string(i) + ": broken prev-hash link"};
    }
  }
  return {true, ""};
}

// ----- durability -----

Bytes Blockchain::save_chain_state() const {
  std::map<Address, std::pair<std::string, Bytes>> contracts;
  for (const auto& [address, contract] : contracts_) {
    contracts.emplace(address, std::pair(contract->contract_name(), contract->save_state()));
  }
  std::vector<Bytes> blocks;
  blocks.reserve(blocks_.size());
  for (const Block& block : blocks_) blocks.push_back(serialize_block(block));
  // The writer only reads through the references.
  auto& chain = const_cast<Blockchain&>(*this);
  const ChainState state{chain.balances_, contracts,     chain.nonces_,
                         blocks,          chain.receipts_, chain.events_,
                         chain.deploy_nonce_, chain.logical_clock_};
  ByteWriter writer;
  writer(kChainStateVersion, state);
  return writer.release();
}

Status Blockchain::restore_chain_state(const Bytes& bytes, const ContractFactory& factory) {
  // Decode into locals first: a malformed payload must leave this chain
  // exactly as it was (fail closed, never partial state).
  std::map<Address, Wei> balances;
  std::map<Address, std::pair<std::string, Bytes>> stored_contracts;
  std::map<Address, std::uint64_t> nonces;
  std::vector<Bytes> block_records;
  std::vector<Receipt> receipts;
  std::vector<Event> events;
  std::uint64_t deploy_nonce = 0;
  std::uint64_t logical_clock = 0;
  ChainState state{balances, stored_contracts, nonces,       block_records,
                   receipts, events,           deploy_nonce, logical_clock};
  std::map<Address, ContractPtr> contracts;
  std::vector<Block> blocks;
  try {
    ByteReader reader(bytes);
    std::uint32_t version = 0;
    reader(version);
    if (version != kChainStateVersion) {
      return Error{"chain.snapshot", "unsupported chain state version " +
                                         std::to_string(version)};
    }
    reader(state);
    if (!reader.exhausted()) {
      return Error{"chain.snapshot", "trailing bytes after chain state"};
    }
    if (block_records.empty()) return Error{"chain.snapshot", "chain state holds no blocks"};
    blocks.reserve(block_records.size());
    for (const Bytes& record : block_records) blocks.push_back(decode_block(record));
    for (const auto& [address, stored] : stored_contracts) {
      const auto& [name, contract_state] = stored;
      ContractPtr contract = factory ? factory(name) : nullptr;
      if (!contract) {
        return Error{"chain.snapshot", "no factory for contract '" + name + "'"};
      }
      contract->load_state(contract_state);
      contracts[address] = std::move(contract);
    }
  } catch (const std::exception& error) {
    return Error{"chain.snapshot", std::string("malformed chain state: ") + error.what()};
  }
  balances_ = std::move(balances);
  contracts_ = std::move(contracts);
  nonces_ = std::move(nonces);
  blocks_ = std::move(blocks);
  mempool_.clear();
  receipts_ = std::move(receipts);
  events_ = std::move(events);
  deploy_nonce_ = deploy_nonce;
  logical_clock_ = logical_clock;
  rebuild_indexes();
  // The attached WAL (if any) mirrors the chain this restore just replaced;
  // appending restored-era blocks to it would interleave two histories.
  // Callers that want durability re-attach explicitly.
  detach_wal();
  return ok_status();
}

Status Blockchain::attach_wal(const std::string& path) {
  Bytes content;
  for (std::size_t i = 1; i < blocks_.size(); ++i) {
    const Bytes frame = frame_wal_record(blocks_[i]);
    content.insert(content.end(), frame.begin(), frame.end());
  }
  detach_wal();
  auto written = write_file_bytes(path, content);
  if (!written.ok()) return written.error();
  return open_wal_handle(path);
}

Result<WalReplay> Blockchain::replay_wal(const std::string& path) {
  if (blocks_.size() != 1 || !mempool_.empty() || !receipts_.empty()) {
    return Error{"wal.state", "replay_wal requires a freshly-constructed chain"};
  }
  WalReplay report;
  if (!std::filesystem::exists(path)) {
    // First boot: start an empty log.
    auto created = write_file_bytes(path, {});
    if (!created.ok()) return created.error();
    auto attached = open_wal_handle(path);
    if (!attached.ok()) return attached.error();
    return report;
  }

  auto raw_read = read_file_bytes(path);
  if (!raw_read.ok()) return raw_read.error();
  const Bytes& raw = raw_read.value();

  std::size_t offset = 0;
  std::size_t last_good = 0;
  while (offset < raw.size()) {
    Block block;
    std::size_t next = offset;
    bool frame_ok = parse_wal_frame(raw, next, block);
    if (frame_ok) {
      // Chain continuity: a CRC-valid record that does not extend this chain
      // is corruption evidence too (e.g. a record swapped in from another
      // log), never silently skippable.
      if (block.header.index != blocks_.size() ||
          block.header.prev_hash != header_hashes_.back() || !block.verify_tx_root()) {
        return Error{"wal.corrupt",
                     path + ": record at offset " + std::to_string(offset) +
                         " does not extend the chain (block " +
                         std::to_string(block.header.index) + ")"};
      }
      header_hashes_.push_back(block.header.hash());
      blocks_.push_back(std::move(block));
      ++report.blocks_replayed;
      offset = next;
      last_good = offset;
      continue;
    }
    // Damaged record. If any complete valid record exists beyond it, the
    // damage is mid-log — refusing is the only honest answer, because
    // truncating here would drop fully-committed blocks.
    if (valid_frame_exists_after(raw, offset + 1)) {
      return Error{"wal.corrupt", path + ": corrupt record at offset " +
                                      std::to_string(offset) +
                                      " precedes committed records (mid-log corruption)"};
    }
    // Torn tail: a crash mid-append. Cut it off and keep everything durable.
    report.tail_truncated = true;
    report.bytes_truncated = raw.size() - last_good;
    auto truncated = write_file_bytes(
        path, Bytes(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(last_good)));
    if (!truncated.ok()) return truncated.error();
    TFL_WARN << "chain WAL " << path << ": truncated torn tail of "
             << report.bytes_truncated << " bytes";
    break;
  }
  logical_clock_ = blocks_.back().header.timestamp + 1;
  auto attached = open_wal_handle(path);
  if (!attached.ok()) return attached.error();
  TFL_COUNTER_ADD("chain.wal.replayed", report.blocks_replayed);
  return report;
}

Status Blockchain::save_snapshot(const std::string& path) const {
  // The snapshot payload is the chain-state blob, length-prefixed.
  SnapshotWriter writer;
  writer(save_chain_state());
  auto written = write_snapshot_file(path, kChainSnapshotKind, kChainSnapshotVersion, writer);
  if (!written.ok()) return written.error();
  TFL_COUNTER_INC("snapshot.writes");
  TFL_COUNTER_ADD("snapshot.bytes", written.value());
  return ok_status();
}

Result<WalReplay> Blockchain::snapshot_sync(const std::string& snapshot_path,
                                            const std::string& wal_path,
                                            const ContractFactory& factory) {
  if (blocks_.size() != 1 || !mempool_.empty() || !receipts_.empty()) {
    return Error{"wal.state", "snapshot_sync requires a freshly-constructed chain"};
  }
  if (!snapshot_exists(snapshot_path)) {
    // Cold start (the crash may predate the first durable snapshot): the WAL
    // alone is the history, so fall back to the full genesis replay.
    return replay_wal(wal_path);
  }
  auto payload = read_snapshot_file(snapshot_path, kChainSnapshotKind, kChainSnapshotVersion);
  if (!payload.ok()) return payload.error();
  auto state = decode_snapshot<Bytes>(payload.value(), [](SnapshotReader& reader) {
    Bytes blob;
    reader(blob);
    return blob;
  });
  if (!state.ok()) return state.error();
  const Status restored = restore_chain_state(state.value(), factory);
  if (!restored.ok()) return restored.error();
  TFL_COUNTER_INC("snapshot.resumes");

  WalReplay report;
  if (!std::filesystem::exists(wal_path)) {
    // Snapshot without a log (first boot after an out-of-band snapshot):
    // start the mirror from the restored chain.
    const Status attached = attach_wal(wal_path);
    if (!attached.ok()) return attached.error();
    return report;
  }
  auto raw_read = read_file_bytes(wal_path);
  if (!raw_read.ok()) return raw_read.error();
  const Bytes& raw = raw_read.value();

  std::size_t offset = 0;
  std::size_t last_good = 0;
  bool torn = false;
  while (offset < raw.size()) {
    WalFrame frame;
    if (frame_bounds(raw, offset, frame) && frame.length >= 8 &&
        read_u64_le(raw, frame.payload_at) < blocks_.size()) {
      // Integrity-checked record the snapshot already covers: skip without
      // decoding. (The index is the first u64 of the block payload.)
      ++report.blocks_skipped;
      offset = frame.end;
      last_good = offset;
      continue;
    }
    Block block;
    std::size_t next = offset;
    if (parse_wal_frame(raw, next, block)) {
      // Tail record past the snapshot height: same continuity contract as
      // replay_wal — it must extend the restored chain exactly.
      if (block.header.index != blocks_.size() ||
          block.header.prev_hash != header_hashes_.back() || !block.verify_tx_root()) {
        return Error{"wal.corrupt",
                     wal_path + ": record at offset " + std::to_string(offset) +
                         " does not extend the snapshot-restored chain (block " +
                         std::to_string(block.header.index) + ")"};
      }
      header_hashes_.push_back(block.header.hash());
      blocks_.push_back(std::move(block));
      ++report.blocks_replayed;
      offset = next;
      last_good = offset;
      continue;
    }
    if (valid_frame_exists_after(raw, offset + 1)) {
      return Error{"wal.corrupt", wal_path + ": corrupt record at offset " +
                                      std::to_string(offset) +
                                      " precedes committed records (mid-log corruption)"};
    }
    report.tail_truncated = true;
    report.bytes_truncated = raw.size() - last_good;
    torn = true;
    TFL_WARN << "chain WAL " << wal_path << ": truncated torn tail of "
             << report.bytes_truncated << " bytes";
    break;
  }
  if (blocks_.back().header.timestamp >= logical_clock_) {
    logical_clock_ = blocks_.back().header.timestamp + 1;
  }
  if (report.blocks_skipped + report.blocks_replayed + 1 < blocks_.size()) {
    // The log ends below the snapshot height (e.g. its own tail was lost):
    // re-mirror the restored chain so appends stay gap-free.
    const Status attached = attach_wal(wal_path);
    if (!attached.ok()) return attached.error();
    return report;
  }
  if (torn) {
    auto truncated = write_file_bytes(
        wal_path, Bytes(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(last_good)));
    if (!truncated.ok()) return truncated.error();
  }
  auto attached = open_wal_handle(wal_path);
  if (!attached.ok()) return attached.error();
  TFL_COUNTER_ADD("chain.wal.replayed", report.blocks_replayed);
  return report;
}

}  // namespace tradefl::chain
