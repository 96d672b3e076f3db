#include "sim/config.h"

#include "util/logging.h"

namespace hercules::sim {

const char*
mappingName(Mapping m)
{
    switch (m) {
      case Mapping::CpuModelBased: return "cpu-model";
      case Mapping::CpuSdPipeline: return "cpu-sd";
      case Mapping::GpuModelBased: return "gpu-model";
      case Mapping::GpuSdPipeline: return "gpu-sd";
    }
    panic("unknown Mapping %d", static_cast<int>(m));
}

std::string
SchedulingConfig::str() const
{
    std::string s = mappingName(mapping);
    switch (mapping) {
      case Mapping::CpuModelBased:
        s += " " + std::to_string(cpu_threads) + "x" +
             std::to_string(cores_per_thread) + " b" +
             std::to_string(batch);
        break;
      case Mapping::CpuSdPipeline:
        s += " " + std::to_string(cpu_threads) + "x" +
             std::to_string(cores_per_thread) + "::" +
             std::to_string(dense_threads) + " b" + std::to_string(batch);
        break;
      case Mapping::GpuModelBased:
        s += " g" + std::to_string(gpu_threads) + " f" +
             std::to_string(fusion_limit) + " host" +
             std::to_string(cpu_threads) + "x" +
             std::to_string(cores_per_thread);
        break;
      case Mapping::GpuSdPipeline:
        s += " " + std::to_string(cpu_threads) + "x" +
             std::to_string(cores_per_thread) + " b" +
             std::to_string(batch) + " -> g" +
             std::to_string(gpu_threads) + " f" +
             std::to_string(fusion_limit);
        break;
    }
    return s;
}

std::string
SchedulingConfig::key() const
{
    std::string s;
    s.reserve(48);
    s += "m=";
    s += std::to_string(static_cast<int>(mapping));
    s += ";t=";
    s += std::to_string(cpu_threads);
    s += ";o=";
    s += std::to_string(cores_per_thread);
    s += ";dt=";
    s += std::to_string(dense_threads);
    s += ";b=";
    s += std::to_string(batch);
    s += ";g=";
    s += std::to_string(gpu_threads);
    s += ";f=";
    s += std::to_string(fusion_limit);
    s += ";fe=";
    s += fuse_elementwise ? '1' : '0';
    return s;
}

std::optional<SchedulingConfig>
SchedulingConfig::fromKey(const std::string& k)
{
    SchedulingConfig cfg;
    size_t pos = 0;
    unsigned seen = 0;  // bitmask: each field exactly once
    while (pos < k.size()) {
        size_t eq = k.find('=', pos);
        if (eq == std::string::npos)
            return std::nullopt;
        size_t end = k.find(';', eq);
        if (end == std::string::npos)
            end = k.size();
        std::string name = k.substr(pos, eq - pos);
        int value;
        try {
            value = std::stoi(k.substr(eq + 1, end - eq - 1));
        } catch (...) {
            return std::nullopt;
        }
        unsigned bit;
        if (name == "m") {
            if (value < 0 ||
                value > static_cast<int>(Mapping::GpuSdPipeline))
                return std::nullopt;
            cfg.mapping = static_cast<Mapping>(value);
            bit = 1u << 0;
        } else if (name == "t") {
            cfg.cpu_threads = value;
            bit = 1u << 1;
        } else if (name == "o") {
            cfg.cores_per_thread = value;
            bit = 1u << 2;
        } else if (name == "dt") {
            cfg.dense_threads = value;
            bit = 1u << 3;
        } else if (name == "b") {
            cfg.batch = value;
            bit = 1u << 4;
        } else if (name == "g") {
            cfg.gpu_threads = value;
            bit = 1u << 5;
        } else if (name == "f") {
            cfg.fusion_limit = value;
            bit = 1u << 6;
        } else if (name == "fe") {
            cfg.fuse_elementwise = value != 0;
            bit = 1u << 7;
        } else {
            return std::nullopt;
        }
        if (name != "m" && name != "fe" && value < 0)
            return std::nullopt;  // counts/limits are non-negative
        if (seen & bit)
            return std::nullopt;  // duplicate field
        seen |= bit;
        pos = end + 1;
    }
    if (seen != 0xffu)
        return std::nullopt;
    return cfg;
}

}  // namespace hercules::sim
