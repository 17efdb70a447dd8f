#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "common/check.hpp"
#include "common/stream.hpp"

namespace sparsenn {
namespace {

constexpr char kMagic[4] = {'S', 'P', 'N', 'N'};

void write_u32(std::ostream& out, std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(b), 4);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(b), 8);
}

std::uint32_t read_u32(std::istream& in) {
  unsigned char b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  if (!in.good()) throw std::runtime_error("truncated model file");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  unsigned char b[8];
  in.read(reinterpret_cast<char*>(b), 8);
  if (!in.good()) throw std::runtime_error("truncated model file");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void write_matrix(std::ostream& out, const Matrix& m) {
  write_u64(out, m.rows());
  write_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.flat().data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

/// Reads a matrix of `rows` × `cols` (0 leaves that dimension free),
/// checking its header against both and its payload against the bytes
/// left in the stream before allocating.
Matrix read_matrix(std::istream& in, std::uint64_t rows,
                   std::uint64_t cols) {
  const std::uint64_t r = read_u64(in);
  const std::uint64_t c = read_u64(in);
  if (r == 0 || c == 0 || (rows != 0 && r != rows) || (cols != 0 && c != cols))
    throw std::runtime_error("matrix dimensions disagree with the topology");
  const std::optional<std::uint64_t> left = bytes_left(in);
  if (!left) throw std::runtime_error("model stream cannot report its length");
  if (r > *left / sizeof(float) / c)
    throw std::runtime_error("truncated matrix payload");
  Matrix m(r, c);
  in.read(reinterpret_cast<char*>(m.flat().data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in.good()) throw std::runtime_error("truncated matrix payload");
  return m;
}

}  // namespace

void save_network(const Network& network, std::ostream& out) {
  out.write(kMagic, 4);
  write_u32(out, kModelFormatVersion);
  const auto& sizes = network.layer_sizes();
  write_u64(out, sizes.size());
  for (std::size_t s : sizes) write_u64(out, s);
  for (std::size_t l = 0; l < network.num_weight_layers(); ++l)
    write_matrix(out, network.weight(l));
  for (std::size_t l = 0; l < network.num_hidden_layers(); ++l) {
    write_u32(out, network.has_predictor(l) ? 1 : 0);
    if (network.has_predictor(l)) {
      write_matrix(out, network.predictor(l).u());
      write_matrix(out, network.predictor(l).v());
    }
  }
  ensures(out.good(), "model write failed");
}

void save_network(const Network& network, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open())
    throw std::runtime_error("cannot open model file for writing: " + path);
  save_network(network, out);
}

Network load_network(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in.good() || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("not a SparseNN model file");
  const std::uint32_t version = read_u32(in);
  if (version != kModelFormatVersion)
    throw std::runtime_error("unsupported model format version " +
                             std::to_string(version));

  const std::uint64_t num_sizes = read_u64(in);
  if (num_sizes < 2 || num_sizes > 64)
    throw std::runtime_error("implausible layer count");
  std::vector<std::size_t> sizes(num_sizes);
  for (auto& s : sizes) {
    s = read_u64(in);
    if (s == 0 || s > (1u << 20))
      throw std::runtime_error("implausible layer size");
  }

  std::vector<Matrix> weights;
  for (std::size_t l = 0; l + 1 < num_sizes; ++l)
    weights.push_back(read_matrix(in, sizes[l + 1], sizes[l]));
  Network net{std::move(weights)};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const std::uint32_t has_predictor = read_u32(in);
    if (has_predictor > 1)
      throw std::runtime_error("corrupt predictor flag");
    if (has_predictor) {
      Matrix u = read_matrix(in, sizes[l + 1], 0);
      Matrix v = read_matrix(in, u.cols(), sizes[l]);
      net.set_predictor(l, Predictor{std::move(u), std::move(v)});
    }
  }
  return net;
}

Network load_network(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("cannot open model file: " + path);
  return load_network(in);
}

}  // namespace sparsenn
