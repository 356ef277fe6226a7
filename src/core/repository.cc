#include "core/repository.hh"

#include <sstream>

#include "common/logging.hh"

namespace dejavu {

std::vector<std::string>
splitRepositoryCsv(const std::string &line)
{
    std::vector<std::string> fields;
    std::istringstream cells(line);
    std::string field;
    while (std::getline(cells, field, ','))
        fields.push_back(field);
    return fields;
}

std::pair<RepositoryKey, ResourceAllocation>
parseRepositoryCells(const std::vector<std::string> &fields,
                     std::size_t offset, std::size_t lineNo,
                     const std::string &line)
{
    try {
        RepositoryKey key{std::stoi(fields[offset]),
                          std::stoi(fields[offset + 1])};
        ResourceAllocation alloc{
            std::stoi(fields[offset + 2]),
            parseInstanceType(fields[offset + 3])};
        if (key.classId < 0 || key.interferenceBucket < 0 ||
            alloc.instances < 1)
            fatal("repository line ", lineNo,
                  ": out-of-range values: ", line);
        return {key, alloc};
    } catch (const std::exception &) {
        fatal("repository line ", lineNo, ": unparsable: ", line);
    }
}

} // namespace dejavu
