#include "durability/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace edgstr::durability {

namespace {

/// Slicing-by-8 tables: tables[0] is the bytewise CRC-32 table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 | std::uint32_t(p[2]) << 16 |
         std::uint32_t(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const std::string& data) {
  static const CrcTables t = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t left = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; left >= 8; p += 8, left -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; left > 0; ++p, --left) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

FileBackend::FileBackend(std::string path) : path_(std::move(path)) { open_log(); }

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

void FileBackend::open_log() {
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("FileBackend: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
}

void FileBackend::append(const std::string& bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("FileBackend: write failed: " + std::string(std::strerror(errno)));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void FileBackend::sync() {
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("FileBackend: fsync failed: " + std::string(std::strerror(errno)));
  }
}

void FileBackend::rewrite(const std::string& bytes) {
  // Write-temp + rename: the old log stays intact until the rename lands,
  // so a crash mid-rewrite recovers the previous image, never a mix.
  const std::string tmp = path_ + ".tmp";
  int tmp_fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (tmp_fd < 0) {
    throw std::runtime_error("FileBackend: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(tmp_fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(tmp_fd);
      throw std::runtime_error("FileBackend: rewrite failed: " + std::string(std::strerror(errno)));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::fsync(tmp_fd);
  ::close(tmp_fd);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("FileBackend: rename failed: " + std::string(std::strerror(errno)));
  }
  ::close(fd_);
  open_log();
}

std::string FileBackend::read_all() const {
  std::string out;
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::uint64_t FileBackend::size() const {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

}  // namespace edgstr::durability
