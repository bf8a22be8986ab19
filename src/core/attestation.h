// Trusted input attestation — the paper's §4.1 counter-countermeasure:
// "One possible way to address the problem is to utilize a trusted
// underlying computer architecture to guarantee that the events have been
// truly generated by the physical devices [7]." We build that future-work
// path: a registry of trusted input devices (the TPM-backed keyboard/mouse
// stack), per-event MACs over the beacon key, and proxy-side verification.
// A §4.1 "intelligent bot" can execute the beacon script and synthesize a
// mouse event, but without a registered device secret it cannot attest the
// event, so the synthetic beacon no longer proves a human.
//
// The MAC is the simulation-grade keyed hash used elsewhere in robodet —
// the *protocol* (fresh per-page challenge key signed by a hardware-held
// secret) is what is being modeled, not the cryptography.
#ifndef ROBODET_SRC_CORE_ATTESTATION_H_
#define ROBODET_SRC_CORE_ATTESTATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace robodet {

class TrustedInputDevice;

// The attestation authority: knows every manufactured device's secret
// (the role a TPM vendor CA plays). The verifying server talks to it;
// clients hold TrustedInputDevice handles.
class AttestationAuthority {
 public:
  // Distinct authorities (vendor CAs) must be seeded differently; the
  // default keeps single-authority experiments deterministic.
  explicit AttestationAuthority(uint64_t seed = 0x7a57edde71ce01ULL) : seed_(seed) {}

  // Manufactures a new device. The returned handle carries the secret;
  // the authority remembers it by id.
  TrustedInputDevice ManufactureDevice();

  // Verifies that `mac` is `payload` signed by device `device_id`.
  bool Verify(uint64_t device_id, std::string_view payload, std::string_view mac) const;

  // Header carrying attestations, and its wire format helpers:
  //   X-Input-Attestation: <device_id_hex>:<mac_hex>
  static constexpr const char* kHeaderName = "X-Input-Attestation";

  struct ParsedHeader {
    uint64_t device_id = 0;
    std::string mac;
  };
  static std::optional<ParsedHeader> ParseHeader(std::string_view value);

 private:
  friend class TrustedInputDevice;
  static std::string Mac(uint64_t secret, std::string_view payload);

  uint64_t next_id_ = 1;
  uint64_t seed_;
  std::unordered_map<uint64_t, uint64_t> secrets_;
};

// A client-side handle to a hardware input device. Only the authority can
// make one; a robot cannot mint its own.
class TrustedInputDevice {
 public:
  uint64_t device_id() const { return device_id_; }

  // Signs an event payload (the beacon key of the event being attested).
  std::string Attest(std::string_view payload) const;

  // Full header value for the attested event.
  std::string HeaderValue(std::string_view payload) const;

 private:
  friend class AttestationAuthority;
  TrustedInputDevice(uint64_t id, uint64_t secret) : device_id_(id), secret_(secret) {}

  uint64_t device_id_;
  uint64_t secret_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_ATTESTATION_H_
