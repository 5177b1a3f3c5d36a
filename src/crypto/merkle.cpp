#include "crypto/merkle.hpp"

namespace mvcom::crypto {

Digest MerkleTree::combine(const Digest& left, const Digest& right) noexcept {
  Sha256 h;
  h.update(std::span<const std::uint8_t>(left.data(), left.size()));
  h.update(std::span<const std::uint8_t>(right.data(), right.size()));
  return h.finalize();
}

MerkleTree::MerkleTree(std::vector<Digest> leaves) {
  if (leaves.empty()) {
    root_ = Sha256::hash(std::string_view{});
    return;
  }
  // Each level overwrites the front of the buffer: node i of the level above
  // is combine(2i, 2i + 1), and an odd level's last entry pairs with itself.
  for (std::size_t n = leaves.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; i < n; i += 2) {
      leaves[i / 2] = combine(leaves[i], leaves[i + 1 < n ? i + 1 : i]);
    }
  }
  root_ = leaves.front();
}

}  // namespace mvcom::crypto
