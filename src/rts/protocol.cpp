#include "rts/protocol.hpp"

namespace mage::rts::proto {

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok:
      return "Ok";
    case Status::Moved:
      return "Moved";
    case Status::NotFound:
      return "NotFound";
    case Status::Error:
      return "Error";
  }
  return "?";
}

void ClassImage::put_fields(serial::Writer& w) const {
  w.reserve(w.size() + 4 + class_name.size() + 4 + code_size);
  w.write_string(class_name);
  w.write_u32(code_size);
  // Filler standing in for the class file's bytecode so the simulated wire
  // pays the real transfer cost.
  w.write_fill(0xCA, code_size);
}

void ClassImage::get_fields(serial::ChainReader& r) {
  class_name = r.read_string();
  code_size = r.read_u32();
  // The filler is only there so the wire pays the transfer cost; skip it
  // (bounds-checked before anything is allocated, so a corrupt code_size
  // raises SerializationError, never a giant allocation).
  r.skip(code_size);
}

}  // namespace mage::rts::proto
